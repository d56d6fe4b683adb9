//! Expected-fail fixture for `no-float-tick` (in scope because the file
//! name contains `tick`). This is the drift bug class the scrub
//! schedule's integer ticks (`ScrubScheduler::due_time`) rule out.

pub struct Scheduler {
    next_due: f64,
    interval: f64,
}

impl Scheduler {
    pub fn advance(&mut self) {
        self.next_due += self.interval; //~ no-float-tick
    }

    pub fn advance_explicit(&mut self) {
        self.next_due = self.next_due + self.interval; //~ no-float-tick
    }

    pub fn drifting_deadline(&self) -> f64 {
        let mut deadline = 0.0;
        deadline += 0.5; //~ no-float-tick
        deadline
    }
}
