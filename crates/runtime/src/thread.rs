//! Mutator threads and call frames.

use polm2_gc::ThreadId;
use polm2_heap::{GenId, ObjectId};

use crate::events::{AllocEventBuffer, TraceFrame};
use crate::trie::TraceNodeId;

/// One call frame. Its locals and saved target generations live on the
/// thread's stacks, from the frame's base indices up to the next frame's.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    /// Class index in the loaded program.
    pub(crate) class_idx: u16,
    /// Method index within the class.
    pub(crate) method_idx: u16,
    /// The line currently executing (call line, alloc line, ...).
    pub(crate) line: u32,
    /// The frame accumulator: most recent allocation or callee result.
    pub(crate) acc: Option<ObjectId>,
    /// True once this frame has allocated: `RecordAlloc` records the
    /// accumulator only after an allocation.
    pub(crate) allocated: bool,
    /// Where this frame's locals start in [`MutatorThread::roots`].
    pub(crate) roots_base: usize,
    /// Where this frame's saved generations start in
    /// [`MutatorThread::saved_gens`].
    pub(crate) gens_base: usize,
}

impl Frame {
    /// The frame as the Recorder sees it right now.
    pub(crate) fn as_trace_frame(&self) -> TraceFrame {
        TraceFrame {
            class_idx: self.class_idx,
            method_idx: self.method_idx,
            line: self.line,
        }
    }
}

/// One mutator thread: an id, a call stack, and the stacks its frames keep
/// their locals and saved generations on.
///
/// Threads are scheduled cooperatively by the driver — one
/// [`Jvm::invoke`](crate::Jvm::invoke) at a time — which keeps the simulation
/// deterministic. Frame roots model Java locals: every object a frame
/// allocates or receives stays reachable until the frame pops.
#[derive(Debug)]
pub struct MutatorThread {
    id: ThreadId,
    pub(crate) frames: Vec<Frame>,
    /// Every frame's locals (objects it allocated or received), outermost
    /// frame first; GC roots while their frame is on the stack.
    pub(crate) roots: Vec<ObjectId>,
    /// Target generations saved by `SetGen`, restored by `RestoreGen` or
    /// when their frame pops.
    pub(crate) saved_gens: Vec<GenId>,
    /// Trie node encoding the frames *below* the topmost one, each frozen at
    /// its call line; maintained on frame push/pop by the interpreter while
    /// allocation contexts are recorded (see [`crate::TraceTrie`]).
    pub(crate) context_node: TraceNodeId,
    /// Buffered allocation events, drained by the Recorder.
    pub(crate) events: AllocEventBuffer,
    /// Scratch for [`stack_roots`](MutatorThread::stack_roots), reused
    /// across GC safepoints.
    roots_scratch: Vec<ObjectId>,
}

impl MutatorThread {
    pub(crate) fn new(id: ThreadId) -> Self {
        MutatorThread {
            id,
            frames: Vec::new(),
            roots: Vec::new(),
            saved_gens: Vec::new(),
            context_node: TraceNodeId::ROOT,
            events: AllocEventBuffer::new(),
            roots_scratch: Vec::new(),
        }
    }

    /// Pushes a frame for `class_idx.method_idx` with no locals yet.
    pub(crate) fn push_frame(&mut self, class_idx: u16, method_idx: u16) {
        debug_assert!(
            !self.frames.is_empty() || (self.roots.is_empty() && self.saved_gens.is_empty()),
            "an unwound stack left locals or saved generations behind"
        );
        self.frames.push(Frame {
            class_idx,
            method_idx,
            line: 0,
            acc: None,
            allocated: false,
            roots_base: self.roots.len(),
            gens_base: self.saved_gens.len(),
        });
    }

    /// Makes `obj` the top frame's accumulator and one of its locals.
    pub(crate) fn hold(&mut self, obj: ObjectId) {
        self.frames.last_mut().expect("holding frame").acc = Some(obj);
        self.roots.push(obj);
    }

    /// The thread id.
    pub fn id(&self) -> ThreadId {
        self.id
    }

    /// Current call depth.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// All objects rooted by this thread's stack, in
    /// [`stack_roots_into`](MutatorThread::stack_roots_into) order.
    ///
    /// The returned slice borrows a per-thread scratch buffer that is reused
    /// instead of allocating a fresh `Vec` at every call.
    pub fn stack_roots(&mut self) -> &[ObjectId] {
        let mut scratch = std::mem::take(&mut self.roots_scratch);
        scratch.clear();
        self.stack_roots_into(&mut scratch);
        self.roots_scratch = scratch;
        &self.roots_scratch
    }

    /// Appends this thread's stack roots to `out`, frame by frame from the
    /// outermost: each frame's locals in the order it gained them, then its
    /// accumulator (shared safepoint-root collection; the buffer is the
    /// caller's to reuse).
    pub fn stack_roots_into(&self, out: &mut Vec<ObjectId>) {
        for (i, f) in self.frames.iter().enumerate() {
            let end = self
                .frames
                .get(i + 1)
                .map_or(self.roots.len(), |next| next.roots_base);
            out.extend_from_slice(&self.roots[f.roots_base..end]);
            out.extend(f.acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_report_their_current_line() {
        let mut t = MutatorThread::new(ThreadId::new(1));
        assert_eq!(t.depth(), 0);
        t.push_frame(0, 0);
        t.frames[0].line = 3;
        t.push_frame(0, 1);
        t.frames[1].line = 7;
        assert_eq!(t.depth(), 2);
        let top = t.frames[1].as_trace_frame();
        assert_eq!((top.class_idx, top.method_idx, top.line), (0, 1, 7));
        assert_eq!(t.frames[0].as_trace_frame().line, 3);
    }

    #[test]
    fn stack_roots_are_each_frames_locals_then_its_acc() {
        let mut t = MutatorThread::new(ThreadId::new(1));
        t.push_frame(0, 0);
        t.roots.extend([ObjectId::new(10), ObjectId::new(11)]);
        t.frames[0].acc = Some(ObjectId::new(11));
        t.push_frame(0, 1);
        t.roots.push(ObjectId::new(20));
        t.frames[1].acc = Some(ObjectId::new(20));
        t.push_frame(0, 2);
        let ids = |v: &[u64]| v.iter().map(|&i| ObjectId::new(i)).collect::<Vec<_>>();
        assert_eq!(t.stack_roots(), ids(&[10, 11, 11, 20, 20]));
    }

    #[test]
    fn stack_roots_reuses_its_scratch_buffer() {
        let mut t = MutatorThread::new(ThreadId::new(1));
        t.push_frame(0, 0);
        t.roots.extend((0..64).map(ObjectId::new));
        assert_eq!(t.stack_roots().len(), 64);
        let cap = t.roots_scratch.capacity();
        let ptr = t.stack_roots().as_ptr();
        assert_eq!(t.stack_roots().len(), 64);
        assert_eq!(t.roots_scratch.capacity(), cap, "no reallocation");
        assert_eq!(t.stack_roots().as_ptr(), ptr, "same storage reused");
    }
}
