//! One in-process interactive session, driven through `SessionEngine` by a
//! `HeuristicUser`, with every call timed.

use crate::trace::Tracer;
use hinn::core::{HinnError, OwnedSessionEngine, SearchOutcome, Step, ViewRequest};
use hinn::user::{HeuristicUser, UserModel, UserResponse};

/// The first view of one major iteration, as the user saw it: enough to
/// replay that view through the public layer functions.
#[derive(Clone, Debug)]
pub struct MajorHead {
    pub major: usize,
    /// `ViewContext::original_ids`: the alive set entering the major.
    pub original_ids: Vec<usize>,
    /// The user's answer (its `τ` drives the density-connect replay).
    pub response: UserResponse,
    /// Query-cell density of the view, to prove the replay rebuilt it.
    pub query_density: f64,
}

/// Keep `view` if it is the first of its major iteration.
pub fn note_head(heads: &mut Vec<MajorHead>, view: &ViewRequest, response: &UserResponse) {
    let major = view.context().major;
    if heads.last().is_none_or(|h| h.major != major) {
        heads.push(MajorHead {
            major,
            original_ids: view.context().original_ids.clone(),
            response: response.clone(),
            query_density: view.profile().query_density(),
        });
    }
}

/// What one session measured and returned.
pub struct SessionRun {
    /// Open until the first view (or `Done`) arrived.
    pub first_ms: f64,
    /// Each submit until the next view or `Done` arrived.
    pub view_ms: Vec<f64>,
    /// Open plus all submits; the user's think time is excluded.
    pub session_ms: f64,
    pub outcome: SearchOutcome,
    pub heads: Vec<MajorHead>,
}

/// Drive one session from `start` to `Done`. `sid` labels its spans.
pub fn drive(
    tracer: &mut Tracer,
    sid: u64,
    start: impl FnOnce() -> Result<(OwnedSessionEngine, Step), HinnError>,
) -> Result<SessionRun, HinnError> {
    let root = tracer.begin("session", sid, None);
    let (started, first_ms) = tracer.time("engine.start", sid, root.id(), start);
    let (mut engine, mut step) = started?;
    let mut user = HeuristicUser::default();
    let mut view_ms = Vec::new();
    let mut heads: Vec<MajorHead> = Vec::new();
    let outcome = loop {
        let view = match step {
            Step::Done(outcome) => break *outcome,
            Step::NeedResponse(view) => view,
        };
        let (response, _) = tracer.time("user.respond", sid, root.id(), || {
            user.respond(view.profile(), view.context())
        });
        note_head(&mut heads, &view, &response);
        let (next, ms) = tracer.time("engine.submit", sid, root.id(), || engine.submit(response));
        view_ms.push(ms);
        step = next?;
    };
    tracer.time("engine.drop", sid, root.id(), || drop(engine));
    tracer.end(root);
    Ok(SessionRun {
        first_ms,
        session_ms: first_ms + view_ms.iter().sum::<f64>(),
        view_ms,
        outcome,
        heads,
    })
}
