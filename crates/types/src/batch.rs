//! Struct-of-arrays batches of dynamic branch events.
//!
//! The streaming confidence hot path (`paco-served`, the offline
//! pipeline replay, `servebench`'s kernel lanes) processes events in
//! frames of a few hundred. Handling them as a `Vec<DynInstr>` pays for
//! a 56-byte array-of-structs element — most of it (`deps`, `mem`,
//! `target`) never read by the confidence pipeline — plus an allocation
//! per frame. An [`EventBatch`] keeps the per-event fields the pipeline
//! actually touches in parallel arrays (PC, class code, outcome), is
//! reusable across frames ([`clear`](EventBatch::clear) keeps
//! capacity), and scans cache-line-densely. These three columns are
//! also exactly what an EVENTS frame carries, so the wire decoder fills
//! them by index ([`columns_mut`](EventBatch::columns_mut)).
//!
//! The dropped fields are deliberate: dependency distances and memory
//! addresses drive the *timing* simulator, and the online pipeline has
//! no BTB or return-stack model to read a target — an [`EventBatch`] is
//! a batch of *branch events*, not of full dynamic instructions, and
//! it gives no `DynInstr` back: two instructions that differ only in
//! `deps`, `mem` or `target` make equal batches.

use crate::{ControlKind, DynInstr, InstrClass, Pc};

/// The class code of a conditional branch (`InstrClass::code`).
const CODE_CONDITIONAL: u8 = InstrClass::Control(ControlKind::Conditional).code();
/// The largest control-flow class code; control codes are contiguous
/// (`Conditional..=Return`, asserted by the `paco-types` unit tests).
const CODE_CONTROL_MAX: u8 = InstrClass::Control(ControlKind::Return).code();

/// Control classification of a class code: `Some(true)` conditional,
/// `Some(false)` other control flow, `None` non-control.
#[inline]
const fn classify(code: u8) -> Option<bool> {
    if code == CODE_CONDITIONAL {
        Some(true)
    } else if code > CODE_CONDITIONAL && code <= CODE_CONTROL_MAX {
        Some(false)
    } else {
        None
    }
}

/// A struct-of-arrays batch of dynamic branch events.
///
/// # Examples
///
/// ```
/// use paco_types::{DynInstr, EventBatch, Pc};
///
/// let mut batch = EventBatch::new();
/// batch.push(&DynInstr::branch(Pc::new(0x1000), true, Pc::new(0x2000)));
/// batch.push(&DynInstr::alu(Pc::new(0x1004)));
/// assert_eq!(batch.len(), 2);
/// assert_eq!(batch.control_at(0), Some(true)); // conditional
/// assert_eq!(batch.control_at(1), None); // not control flow
/// batch.clear(); // reusable: capacity is retained
/// assert!(batch.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventBatch {
    pcs: Vec<u64>,
    classes: Vec<u8>,
    taken: Vec<bool>,
}

impl EventBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        EventBatch::default()
    }

    /// Creates an empty batch with room for `n` events.
    pub fn with_capacity(n: usize) -> Self {
        EventBatch {
            pcs: Vec::with_capacity(n),
            classes: Vec::with_capacity(n),
            taken: Vec::with_capacity(n),
        }
    }

    /// Number of events in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// Whether the batch holds no events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// Empties the batch, retaining capacity for reuse.
    pub fn clear(&mut self) {
        self.pcs.clear();
        self.classes.clear();
        self.taken.clear();
    }

    /// Reserves room for `n` additional events.
    pub fn reserve(&mut self, n: usize) {
        self.pcs.reserve(n);
        self.classes.reserve(n);
        self.taken.reserve(n);
    }

    /// Resizes the batch to `n` events and returns its columns — PCs,
    /// class codes, outcomes — for a decoder to fill by index.
    ///
    /// Every class code stored must be an [`InstrClass::code`];
    /// [`class`](Self::class) panics on any other. A caller that cannot
    /// fill every slot must [`clear`](Self::clear) the batch.
    pub fn columns_mut(&mut self, n: usize) -> (&mut [u64], &mut [u8], &mut [bool]) {
        self.pcs.resize(n, 0);
        self.classes.resize(n, 0);
        self.taken.resize(n, false);
        (&mut self.pcs, &mut self.classes, &mut self.taken)
    }

    /// Appends one event from its raw fields.
    #[inline]
    pub fn push_raw(&mut self, pc: u64, class: InstrClass, taken: bool) {
        self.pcs.push(pc);
        self.classes.push(class.code());
        self.taken.push(taken);
    }

    /// Appends one event from a [`DynInstr`] (dropping `deps`, `mem` and
    /// `target`, see the module docs).
    #[inline]
    pub fn push(&mut self, instr: &DynInstr) {
        self.push_raw(instr.pc.addr(), instr.class, instr.taken);
    }

    /// Appends every instruction of a slice.
    pub fn extend_from_instrs(&mut self, instrs: &[DynInstr]) {
        self.reserve(instrs.len());
        for i in instrs {
            self.push(i);
        }
    }

    /// The event's program counter.
    #[inline]
    pub fn pc(&self, i: usize) -> Pc {
        Pc::new(self.pcs[i])
    }

    /// The event's architectural branch outcome (`false` for non-control
    /// events).
    #[inline]
    pub fn taken(&self, i: usize) -> bool {
        self.taken[i]
    }

    /// The event's functional class.
    #[inline]
    pub fn class(&self, i: usize) -> InstrClass {
        InstrClass::from_code(self.classes[i]).expect("batch holds only valid class codes")
    }

    /// Control-flow classification of event `i`, the hot-lane dispatch
    /// test: `Some(true)` for a conditional branch, `Some(false)` for
    /// other control flow (jump/call/indirect/return), `None` for
    /// non-control instructions.
    #[inline]
    pub fn control_at(&self, i: usize) -> Option<bool> {
        classify(self.classes[i])
    }

    /// Iterates `(pc, control classification, taken)` triples — the
    /// fields the confidence hot loop consumes — over zipped column
    /// slices, so the per-event bounds checks of the indexed accessors
    /// disappear. The classification is [`control_at`](Self::control_at).
    pub fn lanes(&self) -> impl Iterator<Item = (Pc, Option<bool>, bool)> + '_ {
        self.pcs
            .iter()
            .zip(&self.classes)
            .zip(&self.taken)
            .map(|((&pc, &code), &taken)| (Pc::new(pc), classify(code), taken))
    }
}

impl From<&[DynInstr]> for EventBatch {
    fn from(instrs: &[DynInstr]) -> Self {
        let mut batch = EventBatch::with_capacity(instrs.len());
        batch.extend_from_instrs(instrs);
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<DynInstr> {
        vec![
            DynInstr::branch(Pc::new(0x1000), true, Pc::new(0x2000)),
            DynInstr::alu(Pc::new(0x2000)),
            DynInstr {
                pc: Pc::new(0x2004),
                class: InstrClass::Control(ControlKind::Return),
                deps: [0, 0],
                mem: None,
                taken: true,
                target: Pc::new(0x1004),
            },
            DynInstr::branch(Pc::new(0x1004), false, Pc::new(0x3000)),
        ]
    }

    #[test]
    fn round_trips_event_fields() {
        let instrs = sample();
        let batch = EventBatch::from(instrs.as_slice());
        assert_eq!(batch.len(), instrs.len());
        assert_eq!(batch.lanes().count(), instrs.len());
        for (i, (instr, (pc, control, taken))) in instrs.iter().zip(batch.lanes()).enumerate() {
            assert_eq!(pc, instr.pc);
            assert_eq!(control, batch.control_at(i));
            assert_eq!(taken, instr.taken);
            assert_eq!(batch.class(i), instr.class);
        }
        // The target is not a batch field.
        let retargeted: Vec<DynInstr> = instrs
            .iter()
            .map(|i| DynInstr {
                target: Pc::new(0),
                ..*i
            })
            .collect();
        assert_eq!(EventBatch::from(retargeted.as_slice()), batch);
    }

    #[test]
    fn control_classification_matches_instr_class() {
        let instrs = sample();
        let batch = EventBatch::from(instrs.as_slice());
        for (i, instr) in instrs.iter().enumerate() {
            let expect = match instr.class {
                InstrClass::Control(ControlKind::Conditional) => Some(true),
                InstrClass::Control(_) => Some(false),
                _ => None,
            };
            assert_eq!(batch.control_at(i), expect, "event {i}");
        }
    }

    #[test]
    fn deps_and_mem_are_dropped_by_design() {
        let instr = DynInstr::alu(Pc::new(0x40))
            .with_deps(1, 2)
            .with_mem(0xbeef);
        let mut batch = EventBatch::new();
        batch.push(&instr);
        assert_eq!(batch, EventBatch::from(&[DynInstr::alu(Pc::new(0x40))][..]));
    }

    #[test]
    fn columns_mut_sizes_the_batch_for_filling_by_index() {
        let mut batch = EventBatch::from(sample().as_slice());
        let expect = EventBatch::from(&sample()[..2]);
        let (pcs, classes, taken) = batch.columns_mut(2);
        assert_eq!((pcs.len(), classes.len(), taken.len()), (2, 2, 2));
        assert_eq!(batch, expect, "shrinking keeps the leading events");
        let (pcs, classes, taken) = batch.columns_mut(5);
        pcs[4] = 0x50;
        classes[4] = InstrClass::Nop.code();
        taken[4] = true;
        assert_eq!(batch.len(), 5);
        assert_eq!(batch.pc(4), Pc::new(0x50));
        assert_eq!(batch.class(4), InstrClass::Nop);
        assert!(batch.taken(4));
    }

    #[test]
    fn clear_retains_capacity() {
        let mut batch = EventBatch::from(sample().as_slice());
        let cap = batch.pcs.capacity();
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.pcs.capacity(), cap);
        batch.push(&DynInstr::alu(Pc::new(0)));
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn every_class_code_survives_the_batch() {
        let classes = [
            InstrClass::Alu,
            InstrClass::MulDiv,
            InstrClass::Load,
            InstrClass::Store,
            InstrClass::Nop,
            InstrClass::Control(ControlKind::Conditional),
            InstrClass::Control(ControlKind::Jump),
            InstrClass::Control(ControlKind::Call),
            InstrClass::Control(ControlKind::Indirect),
            InstrClass::Control(ControlKind::Return),
        ];
        let mut batch = EventBatch::new();
        for (i, class) in classes.iter().enumerate() {
            batch.push_raw(i as u64 * 4, *class, false);
        }
        for (i, class) in classes.iter().enumerate() {
            assert_eq!(batch.class(i), *class);
        }
    }
}
