//! Round-robin multitasking: interleaving several jobs' reference streams.
//!
//! The Figure 5 experiment runs three gzip jobs on one processor under a round-robin
//! scheduler and varies the context-switch time quantum. [`quanta`] yields the schedule
//! as `(job, range)` pairs in execution order — each range indexes the job's own trace —
//! so the experiment runner replays straight from the job traces and attributes cycles
//! (and therefore CPI) to individual jobs without building anything. [`round_robin`]
//! materialises the same schedule as one merged trace with a per-reference owner, for
//! callers that want the interleaved stream itself.

use ccache_trace::{MemAccess, Trace};
use std::ops::Range;

/// One job in a multiprogrammed mix.
#[derive(Debug, Clone)]
pub struct Job {
    /// Job name (e.g. `"gzip-A"`).
    pub name: String,
    /// The job's reference stream (addresses must not overlap other jobs').
    pub trace: Trace,
}

impl Job {
    /// Creates a job.
    pub fn new(name: impl Into<String>, trace: Trace) -> Self {
        Job {
            name: name.into(),
            trace,
        }
    }
}

/// The interleaved execution of several jobs under round-robin scheduling.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schedule {
    /// The merged reference stream in execution order.
    pub merged: Trace,
    /// For every event of `merged`, the index of the job that issued it.
    pub owner: Vec<usize>,
    /// Number of context switches performed (transitions between different jobs).
    pub context_switches: u64,
    /// The quantum used, in references.
    pub quantum: usize,
}

impl Schedule {
    /// Number of events issued by job `job`.
    pub fn references_of(&self, job: usize) -> usize {
        self.owner.iter().filter(|&&o| o == job).count()
    }

    /// Iterates over `(job, &event)` pairs in execution order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &MemAccess)> {
        self.owner.iter().copied().zip(self.merged.iter())
    }
}

/// The round-robin schedule of a job set as an iterator of `(job, range)` quanta in
/// execution order; `range` indexes `jobs[job].trace`. Built by [`quanta`].
#[derive(Debug, Clone)]
pub struct Quanta<'a> {
    jobs: &'a [Job],
    quantum: usize,
    /// Next unscheduled event of every job.
    cursors: Vec<usize>,
    /// The job whose turn comes next.
    next_job: usize,
}

impl Iterator for Quanta<'_> {
    type Item = (usize, Range<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.quantum == 0 {
            return None;
        }
        for _ in 0..self.jobs.len() {
            let j = self.next_job;
            self.next_job = (j + 1) % self.jobs.len();
            let cur = self.cursors[j];
            let len = self.jobs[j].trace.len();
            if cur < len {
                let end = cur.saturating_add(self.quantum).min(len);
                self.cursors[j] = end;
                return Some((j, cur..end));
            }
        }
        None
    }
}

/// Schedules the jobs round-robin with a quantum of `quantum` references.
///
/// The scheduler hands the processor to each runnable job in turn for up to `quantum` of
/// its references; a job that exhausts its trace drops out of the rotation. This mirrors
/// the paper's setup where "each point in this plot was generated by choosing a time
/// quantum, and performing a round-robin schedule of the three jobs". A zero quantum
/// schedules nothing. A context switch is a change of job between consecutive quanta, so
/// the back-to-back quanta of the last running job are not one.
pub fn quanta(jobs: &[Job], quantum: usize) -> Quanta<'_> {
    Quanta {
        jobs,
        quantum,
        cursors: vec![0; jobs.len()],
        next_job: 0,
    }
}

/// Interleaves the jobs' traces round-robin with a quantum of `quantum` references: the
/// [`quanta`] schedule materialised as one merged trace.
///
/// # Panics
///
/// Panics if `quantum` is zero.
pub fn round_robin(jobs: &[Job], quantum: usize) -> Schedule {
    assert!(quantum > 0, "quantum must be positive");
    let events = jobs.iter().map(|j| j.trace.len()).sum();
    let mut merged = Trace::with_capacity(events);
    let mut owner = Vec::with_capacity(events);
    let mut context_switches = 0u64;
    let mut last_job: Option<usize> = None;
    for (j, range) in quanta(jobs, quantum) {
        if last_job.is_some_and(|last| last != j) {
            context_switches += 1;
        }
        last_job = Some(j);
        owner.resize(owner.len() + range.len(), j);
        merged.extend(jobs[j].trace.as_slice()[range].iter().copied());
    }
    Schedule {
        merged,
        owner,
        context_switches,
        quantum,
    }
}

/// The quantum values swept by the Figure 5 experiment: powers of four from 1 to 1 M
/// references.
pub fn figure5_quanta() -> Vec<usize> {
    (0..=10).map(|p| 4usize.pow(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccache_trace::synth::sequential_scan;

    fn job(name: &str, base: u64, events: u64) -> Job {
        Job::new(name, sequential_scan(base, events * 8, 8, 4, 1, None))
    }

    #[test]
    fn all_events_appear_exactly_once() {
        let jobs = vec![
            job("a", 0x1000, 10),
            job("b", 0x2000, 25),
            job("c", 0x3000, 5),
        ];
        let s = round_robin(&jobs, 4);
        assert_eq!(s.merged.len(), 40);
        assert_eq!(s.owner.len(), 40);
        assert_eq!(s.references_of(0), 10);
        assert_eq!(s.references_of(1), 25);
        assert_eq!(s.references_of(2), 5);
        assert_eq!(s.quantum, 4);
    }

    #[test]
    fn order_within_a_job_is_preserved() {
        let jobs = vec![job("a", 0x1000, 12), job("b", 0x2000, 12)];
        let s = round_robin(&jobs, 5);
        let a_addrs: Vec<u64> = s
            .iter()
            .filter(|(j, _)| *j == 0)
            .map(|(_, e)| e.addr)
            .collect();
        let mut sorted = a_addrs.clone();
        sorted.sort_unstable();
        assert_eq!(a_addrs, sorted);
    }

    #[test]
    fn quantum_one_alternates_jobs() {
        let jobs = vec![job("a", 0x1000, 3), job("b", 0x2000, 3)];
        let s = round_robin(&jobs, 1);
        assert_eq!(s.owner, vec![0, 1, 0, 1, 0, 1]);
        assert_eq!(s.context_switches, 5);
    }

    #[test]
    fn huge_quantum_is_batch_processing() {
        let jobs = vec![job("a", 0x1000, 5), job("b", 0x2000, 5)];
        let s = round_robin(&jobs, 1_000_000);
        assert_eq!(s.owner, vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1]);
        assert_eq!(s.context_switches, 1);
    }

    #[test]
    fn finished_jobs_drop_out_of_rotation() {
        let jobs = vec![job("a", 0x1000, 2), job("b", 0x2000, 8)];
        let s = round_robin(&jobs, 2);
        // after a finishes, b runs its remaining quanta back to back
        let tail: Vec<usize> = s.owner[4..].to_vec();
        assert!(tail.iter().all(|&j| j == 1));
    }

    #[test]
    #[should_panic(expected = "quantum must be positive")]
    fn zero_quantum_rejected() {
        let jobs = vec![job("a", 0, 2)];
        round_robin(&jobs, 0);
    }

    #[test]
    fn quanta_walk_the_jobs_in_round_robin_order() {
        let jobs = vec![
            job("a", 0x1000, 5),
            job("b", 0x2000, 2),
            job("c", 0x3000, 4),
        ];
        let q: Vec<(usize, Range<usize>)> = quanta(&jobs, 2).collect();
        assert_eq!(
            q,
            vec![
                (0, 0..2),
                (1, 0..2),
                (2, 0..2),
                (0, 2..4),
                (2, 2..4),
                (0, 4..5)
            ]
        );
        let s = round_robin(&jobs, 2);
        let owners: Vec<usize> = q
            .iter()
            .flat_map(|(j, r)| std::iter::repeat_n(*j, r.len()))
            .collect();
        assert_eq!(s.owner, owners);
    }

    #[test]
    fn zero_and_huge_quanta_terminate() {
        let jobs = vec![job("a", 0x1000, 3), job("b", 0x2000, 1)];
        assert_eq!(quanta(&jobs, 0).count(), 0);
        assert_eq!(quanta(&[], 4).count(), 0);
        let q: Vec<(usize, Range<usize>)> = quanta(&jobs, usize::MAX).collect();
        assert_eq!(q, vec![(0, 0..3), (1, 0..1)]);
    }

    #[test]
    fn figure5_quanta_cover_the_paper_range() {
        let q = figure5_quanta();
        assert_eq!(q.first(), Some(&1));
        assert_eq!(q.last(), Some(&1_048_576));
        assert_eq!(q.len(), 11);
        assert!(q.windows(2).all(|w| w[1] == w[0] * 4));
    }
}
