//! Integration-test crate for the AVMON workspace; the tests live in the
//! sibling `*.rs` files declared in `Cargo.toml`.

use std::cell::RefCell;
use std::rc::Rc;

use avmon::{NodeId, TimeMs};
use avmon_app::apps::{query_availability, QueryOutcome};
use avmon_app::{Executor, World};

/// Runs one §3.3 availability query from a task on `asker`, advancing
/// `exec` to `until`; `None` if the query has not finished by then.
pub fn query_once<W: World + 'static>(
    exec: &mut Executor<W>,
    asker: NodeId,
    target: NodeId,
    l: u8,
    until: TimeMs,
) -> Option<QueryOutcome> {
    let out = Rc::new(RefCell::new(None));
    let slot = Rc::clone(&out);
    exec.spawn(asker, move |h| async move {
        *slot.borrow_mut() = Some(query_availability(&h, target, l).await);
    });
    exec.run_until(until);
    out.take()
}
