//! ptsim-event — the shared event-driven simulation kernel.
//!
//! Every cycle-level simulator in this workspace used to hand-roll the same
//! loop: collect completions from differently-shaped subsystems, issue what
//! can start now, merge `next_event()` times, and advance a clock with a
//! forward-progress clamp. This crate makes that discipline explicit, the
//! way ONNXim's single event queue does: components implement a small
//! protocol and a [`Scheduler`] owns the global clock.
//!
//! The pieces:
//!
//! - [`Component`]: the `advance(to)` / `next_event()` / `busy()` protocol
//!   that was latently duplicated across the DRAM, NoC, and engine unit
//!   queues. [`CompletionSource`] extends it with a typed completion drain
//!   that appends into a caller-provided buffer, so the hot loop recycles
//!   one allocation instead of taking a fresh `Vec` per poll.
//! - [`EventQueue`]: a typed min-heap of `(Cycle, E)` used for scheduled
//!   events (tile completions, job arrivals, resource-rate wake-ups). Ties
//!   pop in `E`'s `Ord` order, which pins deterministic replay.
//! - [`Scheduler`]: owns `now`, merges component and scheduled wake times,
//!   and decides each step: advance, drain an at-`now` component event
//!   without moving the clock, or report deadlock / safety-limit overrun.
//! - [`WakeSet`]: a dense dirty list over small integer ids (cores), so an
//!   engine issues work only where something changed — O(active) instead of
//!   O(cores × jobs) per event.
//! - [`DrainFifo`]: a time-ordered in-flight queue (bounded admission,
//!   partial consumption) shared by the core timing model's serializer
//!   FIFOs and systolic-array output tracking.
//!
//! The kernel is single-threaded by design: host parallelism pays across
//! independent runs (sweep points), not inside one.
//!
//! # Examples
//!
//! ```
//! use ptsim_common::Cycle;
//! use ptsim_event::{Component, EventQueue, Scheduler, Step};
//!
//! /// A delay line: everything pushed completes a fixed time later.
//! struct Delay {
//!     fifo: ptsim_event::EventQueue<u32>,
//! }
//! impl Component for Delay {
//!     fn advance(&mut self, to: Cycle) {
//!         while self.fifo.pop_due(to).is_some() {}
//!     }
//!     fn next_event(&self) -> Option<Cycle> {
//!         self.fifo.next_time()
//!     }
//!     fn busy(&self) -> bool {
//!         !self.fifo.is_empty()
//!     }
//! }
//!
//! let mut delay = Delay { fifo: EventQueue::new() };
//! delay.fifo.push(Cycle::new(10), 7);
//! let mut sched = Scheduler::new();
//! sched.observe(delay.next_event());
//! assert_eq!(sched.step(), Step::Advance(Cycle::new(10)));
//! delay.advance(sched.now());
//! assert!(!delay.busy());
//! ```

pub mod component;
pub mod fifo;
pub mod queue;
pub mod sched;
pub mod wake;

pub use component::{CompletionSource, Component};
pub use fifo::DrainFifo;
pub use queue::EventQueue;
pub use sched::{Scheduler, Step};
pub use wake::WakeSet;
