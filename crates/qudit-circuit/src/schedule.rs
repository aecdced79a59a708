//! Moment scheduling.
//!
//! The paper's noise model is applied per *Moment* — a set of gates that
//! execute simultaneously (Cirq terminology). We reproduce Cirq's
//! as-early-as-possible scheduler: each operation is placed into the first
//! moment after the last moment that touches any of its qudits. The circuit
//! depth (critical path length) is the number of moments.

use crate::circuit::Circuit;

/// A set of operation indices that execute simultaneously.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Moment {
    /// Indices into the source circuit's operation list.
    pub op_indices: Vec<usize>,
    /// The largest arity (touched-qudit count) among the moment's
    /// operations; 0 for an empty moment.
    max_arity: usize,
}

impl Moment {
    /// The number of operations in the moment.
    pub fn len(&self) -> usize {
        self.op_indices.len()
    }

    /// Returns `true` if the moment contains no operations.
    pub fn is_empty(&self) -> bool {
        self.op_indices.is_empty()
    }

    /// The largest arity among the moment's operations (0 when empty).
    pub fn max_arity(&self) -> usize {
        self.max_arity
    }

    /// Records an operation in the moment.
    fn push(&mut self, op_idx: usize, arity: usize) {
        self.op_indices.push(op_idx);
        self.max_arity = self.max_arity.max(arity);
    }
}

/// An as-early-as-possible schedule of a circuit into moments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    moments: Vec<Moment>,
}

impl Schedule {
    /// Schedules the circuit's operations as early as possible.
    pub fn asap(circuit: &Circuit) -> Self {
        let mut frontier = vec![0usize; circuit.width()];
        let mut moments: Vec<Moment> = Vec::new();

        for (idx, op) in circuit.iter().enumerate() {
            let qudits = op.qudits();
            let slot = qudits.iter().map(|&q| frontier[q]).max().unwrap_or(0);
            while moments.len() <= slot {
                moments.push(Moment::default());
            }
            moments[slot].push(idx, op.arity());
            for &q in &qudits {
                frontier[q] = slot + 1;
            }
        }

        Schedule { moments }
    }

    /// Schedules the circuit serially: one operation per moment.
    ///
    /// Used as an ablation baseline — it maximises idle time and therefore
    /// idle errors.
    pub fn serial(circuit: &Circuit) -> Self {
        let moments: Vec<Moment> = circuit
            .iter()
            .enumerate()
            .map(|(idx, op)| {
                let mut m = Moment::default();
                m.push(idx, op.arity());
                m
            })
            .collect();
        Schedule { moments }
    }

    /// The scheduled moments in execution order.
    pub fn moments(&self) -> &[Moment] {
        &self.moments
    }

    /// The circuit depth: number of moments on the critical path.
    pub fn depth(&self) -> usize {
        self.moments.len()
    }

    /// Iterates over `(moment index, &[operation index])` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[usize])> {
        self.moments
            .iter()
            .enumerate()
            .map(|(i, m)| (i, m.op_indices.as_slice()))
    }
}

/// The duration of one execution frame, in gate-time units.
///
/// A *frame* is the noise-accounting unit of a compiled circuit: one
/// logical moment of the pre-lowering schedule, together with everything a
/// decomposition pass expanded its operations into. Its duration falls out
/// of the lowered schedule — the number of two-qudit layers the frame's
/// operations occupy — rather than being inferred from operation arity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FrameDuration {
    /// The frame contains only single-qudit gates: one single-qudit gate
    /// time.
    SingleQudit,
    /// The frame spans this many two-qudit layers, each lasting one
    /// two-qudit gate time. Single-qudit gates interleave with the layers
    /// (the paper's Di & Wei depth accounting), so they add no time.
    TwoQuditLayers(usize),
}

impl FrameDuration {
    /// The frame's contribution to physical depth, in moments.
    pub fn depth(self) -> usize {
        match self {
            FrameDuration::SingleQudit => 1,
            FrameDuration::TwoQuditLayers(layers) => layers.max(1),
        }
    }
}

/// One execution frame: the operation indices it contains (into the
/// compiled circuit's op list, in op order) and its duration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    op_indices: Vec<usize>,
    duration: FrameDuration,
}

impl Frame {
    /// Builds a frame from its operations and measured duration.
    pub fn new(op_indices: Vec<usize>, duration: FrameDuration) -> Self {
        Frame {
            op_indices,
            duration,
        }
    }

    /// The operation indices executed in this frame, in op order.
    pub fn op_indices(&self) -> &[usize] {
        &self.op_indices
    }

    /// The frame's duration.
    pub fn duration(&self) -> FrameDuration {
        self.duration
    }
}

/// The frame partition of a compiled circuit: every operation belongs to
/// exactly one frame, frames execute in order, and idle errors are charged
/// once per frame for its measured duration.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FrameSchedule {
    frames: Vec<Frame>,
}

impl FrameSchedule {
    /// Builds a frame schedule from explicit frames.
    pub fn new(frames: Vec<Frame>) -> Self {
        FrameSchedule { frames }
    }

    /// The frames in execution order.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// The physical depth: the total number of moments across all frames.
    pub fn physical_depth(&self) -> usize {
        self.frames.iter().map(|f| f.duration().depth()).sum()
    }

    /// One frame per schedule moment, lasting one two-qudit gate time when
    /// the moment holds an operation on ≥ 2 qudits and one single-qudit
    /// gate time otherwise. These are the frames of every
    /// [`PassLevel::NoisePreserving`](crate::PassLevel::NoisePreserving)
    /// noise program, and of a `Physical` compile whose op list a later
    /// step replaced or that kept an operation it could not lower.
    pub fn from_moments(schedule: &Schedule) -> FrameSchedule {
        let frames = schedule
            .moments()
            .iter()
            .map(|m| {
                let duration = if m.max_arity() >= 2 {
                    FrameDuration::TwoQuditLayers(1)
                } else {
                    FrameDuration::SingleQudit
                };
                Frame::new(m.op_indices.clone(), duration)
            })
            .collect();
        FrameSchedule { frames }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use crate::operation::Control;

    #[test]
    fn independent_gates_share_a_moment() {
        let mut c = Circuit::new(3, 4);
        for q in 0..4 {
            c.push_gate(Gate::x(3), &[q]).unwrap();
        }
        let s = Schedule::asap(&c);
        assert_eq!(s.depth(), 1);
        assert_eq!(s.moments()[0].len(), 4);
    }

    #[test]
    fn dependent_gates_serialise() {
        let mut c = Circuit::new(3, 1);
        for _ in 0..5 {
            c.push_gate(Gate::x(3), &[0]).unwrap();
        }
        let s = Schedule::asap(&c);
        assert_eq!(s.depth(), 5);
    }

    #[test]
    fn controls_create_dependencies() {
        let mut c = Circuit::new(3, 3);
        c.push_controlled(Gate::increment(3), &[Control::on_one(0)], &[1])
            .unwrap();
        c.push_controlled(Gate::x(3), &[Control::on_two(1)], &[2])
            .unwrap();
        c.push_controlled(Gate::decrement(3), &[Control::on_one(0)], &[1])
            .unwrap();
        let s = Schedule::asap(&c);
        assert_eq!(s.depth(), 3, "Figure 4 Toffoli has depth 3");
    }

    #[test]
    fn tree_halving_gives_log_depth() {
        // Pairwise gates on (0,1), (2,3), (4,5), (6,7) then (1,3), (5,7)
        // then (3,7): a binary-tree pattern like Figure 5's left half.
        let mut c = Circuit::new(3, 8);
        let pairs = [(0, 1), (2, 3), (4, 5), (6, 7), (1, 3), (5, 7), (3, 7)];
        for (a, b) in pairs {
            c.push_controlled(Gate::increment(3), &[Control::on_one(a)], &[b])
                .unwrap();
        }
        let s = Schedule::asap(&c);
        assert_eq!(s.depth(), 3, "8-leaf tree should schedule into 3 levels");
    }

    #[test]
    fn serial_schedule_has_one_op_per_moment() {
        let mut c = Circuit::new(3, 2);
        c.push_gate(Gate::x(3), &[0]).unwrap();
        c.push_gate(Gate::x(3), &[1]).unwrap();
        let s = Schedule::serial(&c);
        assert_eq!(s.depth(), 2);
        let asap = Schedule::asap(&c);
        assert_eq!(asap.depth(), 1);
    }

    #[test]
    fn multi_qudit_flags_follow_arity() {
        let mut c = Circuit::new(3, 3);
        c.push_gate(Gate::x(3), &[0]).unwrap();
        c.push_controlled(Gate::x(3), &[Control::on_one(1)], &[2])
            .unwrap();
        let s = Schedule::asap(&c);
        assert_eq!(s.depth(), 1);
        assert_eq!(s.moments()[0].max_arity(), 2);

        let mut c2 = Circuit::new(3, 1);
        c2.push_gate(Gate::x(3), &[0]).unwrap();
        let s2 = Schedule::asap(&c2);
        assert_eq!(s2.moments()[0].max_arity(), 1);
    }

    #[test]
    fn moment_frames_are_timed_by_max_arity() {
        let mut c = Circuit::new(3, 3);
        c.push_gate(Gate::x(3), &[0]).unwrap();
        c.push_controlled(Gate::x(3), &[Control::on_one(1)], &[2])
            .unwrap();
        c.push_controlled(
            Gate::increment(3),
            &[Control::on_one(0), Control::on_two(1)],
            &[2],
        )
        .unwrap();
        let s = Schedule::asap(&c);
        assert_eq!(s.moments()[0].max_arity(), 2);
        assert_eq!(s.moments()[1].max_arity(), 3);
        // Moment 0 (an X beside a 2-qudit CX) and moment 1 (the 3-qudit
        // operation) both last one two-qudit gate time.
        let frames = FrameSchedule::from_moments(&s);
        assert_eq!(frames.frames()[0].op_indices(), &[0, 1]);
        assert_eq!(
            frames.frames()[0].duration(),
            FrameDuration::TwoQuditLayers(1)
        );
        assert_eq!(frames.frames()[1].op_indices(), &[2]);
        assert_eq!(
            frames.frames()[1].duration(),
            FrameDuration::TwoQuditLayers(1)
        );
        assert_eq!(frames.physical_depth(), 2);

        let mut single = Circuit::new(3, 1);
        single.push_gate(Gate::h(3), &[0]).unwrap();
        let frames = FrameSchedule::from_moments(&Schedule::asap(&single));
        assert_eq!(frames.frames()[0].duration(), FrameDuration::SingleQudit);
    }

    #[test]
    fn empty_circuit_has_zero_depth() {
        let c = Circuit::new(3, 4);
        assert_eq!(Schedule::asap(&c).depth(), 0);
    }
}
