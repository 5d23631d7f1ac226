//! Keeps every core out of the idle state for the length of a run.
//!
//! The reference box is a 2-vCPU virtual machine whose idle state is a
//! halt that hands the core back to the host. A thread that slept (the
//! pump's 1 ms tick, a reader blocked on a socket, the paced generator
//! between events) then wakes up to a millisecond late, or on time, as
//! the host pleases: `rules_embedded` read 0.9 ms or 1.7 ms at the median
//! from one run to the next on the same inputs. One spinning thread per
//! core under `SCHED_IDLE` stops the cores from halting; any other thread
//! that becomes runnable preempts it at once, so it takes nothing from
//! the engine or the load generator. The in-guest equivalent of booting
//! a benchmark machine with `idle=poll`.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    /// With pid 0, Linux applies the policy to the calling thread.
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

const SCHED_IDLE: i32 = 5;

pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinning: Arc<AtomicUsize>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// One spinner per core. A thread that cannot get `SCHED_IDLE` exits
    /// instead of spinning: at normal priority it would compete.
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let spinning = Arc::new(AtomicUsize::new(0));
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (0..cores)
            .map(|_| {
                let (stop, spinning) = (Arc::clone(&stop), Arc::clone(&spinning));
                std::thread::spawn(move || {
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: `param` outlives the call, which only reads it.
                    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0 {
                        return;
                    }
                    spinning.fetch_add(1, Ordering::Relaxed);
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake {
            stop,
            spinning,
            threads,
        }
    }

    /// Stop the spinners, wait for them, and note how many cores had one.
    pub fn stop(self, report: &mut crate::run::Report, during: &str) {
        report.notes.push(format!(
            "cores kept out of idle during {during}: {} of {}",
            self.spinning.load(Ordering::Relaxed),
            self.threads.len()
        ));
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stopping joins every spinner, whether or not it got `SCHED_IDLE`.
    #[test]
    fn spinners_start_and_stop() {
        let awake = KeepAwake::start();
        let cores = awake.threads.len();
        assert!(cores >= 1);
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut report = crate::run::Report::new();
        awake.stop(&mut report, "a test");
        assert_eq!(report.notes.len(), 1);
        assert!(
            report.notes[0].ends_with(&format!("of {cores}")),
            "{}",
            report.notes[0]
        );
    }
}
