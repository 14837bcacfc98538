//! Class loading: agent transformer chain, resolution, site assignment.

use std::collections::HashMap;

use polm2_heap::{ClassId, GenId, Heap, SiteId};

use crate::events::TraceFrame;
use crate::ir::{ClassDef, CodeLoc, CountSpec, Instr, Program, SizeSpec};
use crate::RuntimeError;

/// A load-time bytecode transformer — the Java-agent analogue.
///
/// The POLM2 Recorder and Instrumenter both implement this: they see every
/// class exactly once, while it is being loaded, and may rewrite its methods
/// freely. The application itself is never modified on disk, matching the
/// paper's "no source code access required" property.
pub trait ClassTransformer {
    /// A short name for diagnostics.
    fn name(&self) -> &str;

    /// Rewrites one class in place.
    fn transform(&mut self, class: &mut ClassDef);
}

/// Metadata for one allocation site discovered at load time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteInfo {
    /// The site id.
    pub id: SiteId,
    /// Name of the class the site allocates.
    pub alloc_class: String,
    /// Where the site lives.
    pub location: CodeLoc,
}

/// All allocation sites of a loaded program.
#[derive(Debug, Clone, Default)]
pub struct SiteTable {
    sites: Vec<SiteInfo>,
    by_location: HashMap<CodeLoc, SiteId>,
}

impl SiteTable {
    fn intern(&mut self, alloc_class: &str, location: CodeLoc) -> SiteId {
        if let Some(&id) = self.by_location.get(&location) {
            return id;
        }
        let id = SiteId::new(self.sites.len() as u32);
        self.sites.push(SiteInfo {
            id,
            alloc_class: alloc_class.to_string(),
            location: location.clone(),
        });
        self.by_location.insert(location, id);
        id
    }

    /// Site metadata by id.
    pub fn info(&self, id: SiteId) -> Option<&SiteInfo> {
        self.sites.get(id.index())
    }

    /// Site id by source location.
    pub fn find(&self, location: &CodeLoc) -> Option<SiteId> {
        self.by_location.get(location).copied()
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True if the program allocates nowhere.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Iterates over all sites in id order.
    pub fn iter(&self) -> impl Iterator<Item = &SiteInfo> {
        self.sites.iter()
    }
}

/// A resolved instruction (names replaced by indices/ids).
#[derive(Debug, Clone)]
pub(crate) enum RInstr {
    Alloc {
        class: ClassId,
        size: RSize,
        site: SiteId,
        pretenure: bool,
        line: u32,
    },
    Call {
        class_idx: u16,
        method_idx: u16,
        line: u32,
    },
    Branch {
        cond: u16,
        then_block: Vec<RInstr>,
        else_block: Vec<RInstr>,
        line: u32,
    },
    Repeat {
        count: RCount,
        body: Vec<RInstr>,
        line: u32,
    },
    Native {
        hook: u16,
        line: u32,
    },
    SetGen {
        gen: GenId,
        line: u32,
    },
    RestoreGen {
        line: u32,
    },
    RecordAlloc,
}

#[derive(Debug, Clone)]
pub(crate) enum RSize {
    Fixed(u32),
    Hook(u16),
}

#[derive(Debug, Clone)]
pub(crate) enum RCount {
    Fixed(u32),
    Hook(u16),
}

/// The hook names a program uses, one table per [`HookRegistry`] kind. A
/// resolved instruction carries its hook's index into the matching table.
///
/// [`HookRegistry`]: crate::HookRegistry
#[derive(Debug, Default)]
pub(crate) struct HookNames {
    pub(crate) actions: Vec<String>,
    pub(crate) conds: Vec<String>,
    pub(crate) sizes: Vec<String>,
    pub(crate) counts: Vec<String>,
}

/// The index of `name` in `names`, appending it on first use.
fn intern_hook(names: &mut Vec<String>, name: &str) -> u16 {
    let idx = match names.iter().position(|n| n == name) {
        Some(idx) => idx,
        None => {
            names.push(name.to_string());
            names.len() - 1
        }
    };
    u16::try_from(idx).expect("at most 65536 hook names per kind")
}

#[derive(Debug)]
pub(crate) struct LoadedMethod {
    pub(crate) name: String,
    pub(crate) body: Vec<RInstr>,
}

#[derive(Debug)]
pub(crate) struct LoadedClass {
    pub(crate) name: String,
    pub(crate) methods: Vec<LoadedMethod>,
}

/// A program after transformation and resolution: what the interpreter runs.
#[derive(Debug)]
pub struct LoadedProgram {
    classes: Vec<LoadedClass>,
    by_name: HashMap<String, u16>,
    sites: SiteTable,
    hook_names: HookNames,
    records_allocs: bool,
}

impl LoadedProgram {
    /// Resolves `(class, method)` to interpreter indices.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownClass`] / [`RuntimeError::UnknownMethod`].
    pub fn resolve(&self, class: &str, method: &str) -> Result<(u16, u16), RuntimeError> {
        let ci = *self
            .by_name
            .get(class)
            .ok_or_else(|| RuntimeError::UnknownClass {
                class: class.to_string(),
            })?;
        let mi = self.classes[ci as usize]
            .methods
            .iter()
            .position(|m| m.name == method)
            .ok_or_else(|| RuntimeError::UnknownMethod {
                class: class.to_string(),
                method: method.to_string(),
            })?;
        Ok((ci, mi as u16))
    }

    /// The allocation-site table.
    pub fn sites(&self) -> &SiteTable {
        &self.sites
    }

    /// True if any method contains a `RecordAlloc` — i.e. the Recorder agent
    /// instrumented this program, so its allocation contexts are read.
    pub fn records_allocs(&self) -> bool {
        self.records_allocs
    }

    pub(crate) fn hook_names(&self) -> &HookNames {
        &self.hook_names
    }

    /// Resolves a compact trace frame to a human-readable location.
    ///
    /// # Panics
    ///
    /// Panics if the indices do not belong to this program. For frames of
    /// untrusted provenance (e.g. records read back from disk), use
    /// [`try_code_loc`](Self::try_code_loc) instead.
    pub fn code_loc(&self, frame: TraceFrame) -> CodeLoc {
        self.try_code_loc(frame)
            .expect("trace frame belongs to this program")
    }

    /// Like [`code_loc`](Self::code_loc), but returns `None` for frames whose
    /// indices do not resolve in this program instead of panicking.
    pub fn try_code_loc(&self, frame: TraceFrame) -> Option<CodeLoc> {
        let class = self.classes.get(frame.class_idx as usize)?;
        let method = class.methods.get(frame.method_idx as usize)?;
        Some(CodeLoc {
            class: class.name.clone(),
            method: method.name.clone(),
            line: frame.line,
        })
    }

    /// True if the frame's class and method indices resolve in this program.
    pub fn frame_is_valid(&self, frame: TraceFrame) -> bool {
        self.classes
            .get(frame.class_idx as usize)
            .is_some_and(|c| c.methods.get(frame.method_idx as usize).is_some())
    }

    /// Number of loaded classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    pub(crate) fn class_by_idx(&self, idx: u16) -> &LoadedClass {
        &self.classes[idx as usize]
    }
}

/// Loads programs: runs the transformer chain, interns classes, resolves
/// calls, and assigns allocation-site ids.
#[derive(Debug, Default)]
pub struct Loader;

impl Loader {
    /// Loads `program` into `heap`'s class registry, applying `transformers`
    /// to every class first (in order), exactly as stacked Java agents see
    /// classes at load time.
    ///
    /// Hook names are interned per kind, not looked up: an instruction
    /// naming a hook nobody registers loads fine and fails with
    /// [`RuntimeError::UnknownHook`] only if it executes.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownClass`] / [`RuntimeError::UnknownMethod`] if a
    /// call target does not resolve after transformation.
    pub fn load(
        mut program: Program,
        transformers: &mut [&mut dyn ClassTransformer],
        heap: &mut Heap,
    ) -> Result<LoadedProgram, RuntimeError> {
        for class in program.classes_mut() {
            for t in transformers.iter_mut() {
                t.transform(class);
            }
        }

        let by_name: HashMap<String, u16> = program
            .classes()
            .iter()
            .enumerate()
            .map(|(i, class)| (class.name.clone(), i as u16))
            .collect();
        let mut resolver = Resolver {
            program: &program,
            by_name: &by_name,
            heap,
            sites: SiteTable::default(),
            hook_names: HookNames::default(),
            records_allocs: false,
        };
        let mut classes = Vec::with_capacity(program.classes().len());
        for class in program.classes() {
            let mut methods = Vec::with_capacity(class.methods.len());
            for method in &class.methods {
                let body = resolver.block(&method.body, &class.name, &method.name)?;
                methods.push(LoadedMethod {
                    name: method.name.clone(),
                    body,
                });
            }
            classes.push(LoadedClass {
                name: class.name.clone(),
                methods,
            });
        }

        let Resolver {
            sites,
            hook_names,
            records_allocs,
            ..
        } = resolver;
        Ok(LoadedProgram {
            classes,
            by_name,
            sites,
            hook_names,
            records_allocs,
        })
    }
}

/// Load-time resolution state: turns [`Instr`] trees into [`RInstr`] trees.
struct Resolver<'a> {
    program: &'a Program,
    by_name: &'a HashMap<String, u16>,
    heap: &'a mut Heap,
    sites: SiteTable,
    hook_names: HookNames,
    records_allocs: bool,
}

impl Resolver<'_> {
    fn block(
        &mut self,
        block: &[Instr],
        class_name: &str,
        method_name: &str,
    ) -> Result<Vec<RInstr>, RuntimeError> {
        let mut out = Vec::with_capacity(block.len());
        for instr in block {
            out.push(match instr {
                Instr::Alloc {
                    class_name: alloc_class,
                    size,
                    line,
                    pretenure,
                } => {
                    let class = self.heap.classes_mut().intern(alloc_class);
                    let site = self
                        .sites
                        .intern(alloc_class, CodeLoc::new(class_name, method_name, *line));
                    RInstr::Alloc {
                        class,
                        size: match size {
                            SizeSpec::Fixed(n) => RSize::Fixed(*n),
                            SizeSpec::Hook(h) => {
                                RSize::Hook(intern_hook(&mut self.hook_names.sizes, h))
                            }
                        },
                        site,
                        pretenure: *pretenure,
                        line: *line,
                    }
                }
                Instr::Call {
                    class,
                    method,
                    line,
                } => {
                    let ci =
                        *self
                            .by_name
                            .get(class)
                            .ok_or_else(|| RuntimeError::UnknownClass {
                                class: class.clone(),
                            })?;
                    let mi = self.program.classes()[ci as usize]
                        .methods
                        .iter()
                        .position(|m| m.name == *method)
                        .ok_or_else(|| RuntimeError::UnknownMethod {
                            class: class.clone(),
                            method: method.clone(),
                        })?;
                    RInstr::Call {
                        class_idx: ci,
                        method_idx: mi as u16,
                        line: *line,
                    }
                }
                Instr::Branch {
                    cond,
                    then_block,
                    else_block,
                    line,
                } => RInstr::Branch {
                    cond: intern_hook(&mut self.hook_names.conds, cond),
                    then_block: self.block(then_block, class_name, method_name)?,
                    else_block: self.block(else_block, class_name, method_name)?,
                    line: *line,
                },
                Instr::Repeat { count, body, line } => RInstr::Repeat {
                    count: match count {
                        CountSpec::Fixed(n) => RCount::Fixed(*n),
                        CountSpec::Hook(h) => {
                            RCount::Hook(intern_hook(&mut self.hook_names.counts, h))
                        }
                    },
                    body: self.block(body, class_name, method_name)?,
                    line: *line,
                },
                Instr::Native { hook, line } => RInstr::Native {
                    hook: intern_hook(&mut self.hook_names.actions, hook),
                    line: *line,
                },
                Instr::SetGen { gen, line } => RInstr::SetGen {
                    gen: *gen,
                    line: *line,
                },
                Instr::RestoreGen { line } => RInstr::RestoreGen { line: *line },
                // Recording is invisible to the line tracker, so the line
                // is dropped.
                Instr::RecordAlloc { .. } => {
                    self.records_allocs = true;
                    RInstr::RecordAlloc
                }
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::MethodDef;
    use polm2_heap::HeapConfig;

    fn sample() -> Program {
        let mut p = Program::new();
        p.add_class(
            ClassDef::new("A")
                .with_method(MethodDef::new("main").push(Instr::call("A", "make", 2)))
                .with_method(MethodDef::new("make").push(Instr::alloc(
                    "Buf",
                    SizeSpec::Fixed(64),
                    5,
                ))),
        );
        p
    }

    #[test]
    fn load_resolves_and_assigns_sites() {
        let mut heap = Heap::new(HeapConfig::small());
        let loaded = Loader::load(sample(), &mut [], &mut heap).unwrap();
        assert_eq!(loaded.class_count(), 1);
        assert_eq!(loaded.sites().len(), 1);
        let site = loaded.sites().iter().next().unwrap();
        assert_eq!(site.alloc_class, "Buf");
        assert_eq!(site.location, CodeLoc::new("A", "make", 5));
        assert!(loaded.resolve("A", "main").is_ok());
        assert!(heap.classes().lookup("Buf").is_some());
    }

    #[test]
    fn unknown_call_target_fails_at_load() {
        let mut p = sample();
        p.classes_mut()[0]
            .methods
            .push(MethodDef::new("bad").push(Instr::call("Nope", "x", 1)));
        let mut heap = Heap::new(HeapConfig::small());
        let err = Loader::load(p, &mut [], &mut heap).unwrap_err();
        assert!(matches!(err, RuntimeError::UnknownClass { .. }));

        let mut p = sample();
        p.classes_mut()[0]
            .methods
            .push(MethodDef::new("bad").push(Instr::call("A", "nope", 1)));
        let err = Loader::load(p, &mut [], &mut Heap::new(HeapConfig::small())).unwrap_err();
        assert!(matches!(err, RuntimeError::UnknownMethod { .. }));
    }

    #[test]
    fn transformers_run_before_resolution() {
        struct AddAlloc;
        impl ClassTransformer for AddAlloc {
            fn name(&self) -> &str {
                "add-alloc"
            }
            fn transform(&mut self, class: &mut ClassDef) {
                if let Some(m) = class.method_mut("main") {
                    m.body.push(Instr::alloc("Extra", SizeSpec::Fixed(8), 99));
                }
            }
        }
        let mut heap = Heap::new(HeapConfig::small());
        let mut t = AddAlloc;
        let loaded = Loader::load(sample(), &mut [&mut t], &mut heap).unwrap();
        assert_eq!(
            loaded.sites().len(),
            2,
            "transformer-inserted site must be registered"
        );
        assert!(loaded
            .sites()
            .find(&CodeLoc::new("A", "main", 99))
            .is_some());
    }

    #[test]
    fn same_location_interns_once() {
        let mut p = Program::new();
        p.add_class(
            ClassDef::new("A").with_method(
                MethodDef::new("m")
                    .push(Instr::alloc("X", SizeSpec::Fixed(8), 4))
                    .push(Instr::alloc("X", SizeSpec::Fixed(8), 4)),
            ),
        );
        let mut heap = Heap::new(HeapConfig::small());
        let loaded = Loader::load(p, &mut [], &mut heap).unwrap();
        assert_eq!(loaded.sites().len(), 1);
    }

    #[test]
    fn hook_names_intern_once_per_kind() {
        let mut p = Program::new();
        p.add_class(
            ClassDef::new("A").with_method(
                MethodDef::new("m")
                    .push(Instr::native("h", 1))
                    .push(Instr::Branch {
                        cond: "h".into(),
                        then_block: vec![Instr::native("h", 3), Instr::native("g", 4)],
                        else_block: vec![],
                        line: 2,
                    })
                    .push(Instr::alloc("X", SizeSpec::Hook("h".into()), 5)),
            ),
        );
        let loaded = Loader::load(p.clone(), &mut [], &mut Heap::new(HeapConfig::small())).unwrap();
        let names = loaded.hook_names();
        assert_eq!(names.actions, ["h", "g"]);
        assert_eq!(names.conds, ["h"]);
        assert_eq!(names.sizes, ["h"]);
        assert!(names.counts.is_empty());
        assert!(!loaded.records_allocs());

        p.classes_mut()[0].methods[0]
            .body
            .push(Instr::RecordAlloc { line: 5 });
        let loaded = Loader::load(p, &mut [], &mut Heap::new(HeapConfig::small())).unwrap();
        assert!(loaded.records_allocs());
    }

    #[test]
    fn code_loc_resolution() {
        let mut heap = Heap::new(HeapConfig::small());
        let loaded = Loader::load(sample(), &mut [], &mut heap).unwrap();
        let loc = loaded.code_loc(TraceFrame {
            class_idx: 0,
            method_idx: 1,
            line: 5,
        });
        assert_eq!(loc, CodeLoc::new("A", "make", 5));
    }

    #[test]
    fn out_of_range_frames_are_rejected_not_resolved() {
        let mut heap = Heap::new(HeapConfig::small());
        let loaded = Loader::load(sample(), &mut [], &mut heap).unwrap();
        let good = TraceFrame {
            class_idx: 0,
            method_idx: 0,
            line: 1,
        };
        let bad_class = TraceFrame {
            class_idx: u16::MAX,
            method_idx: 0,
            line: 1,
        };
        let bad_method = TraceFrame {
            class_idx: 0,
            method_idx: u16::MAX,
            line: 1,
        };
        assert!(loaded.frame_is_valid(good));
        assert!(!loaded.frame_is_valid(bad_class));
        assert!(!loaded.frame_is_valid(bad_method));
        assert!(loaded.try_code_loc(good).is_some());
        assert!(loaded.try_code_loc(bad_class).is_none());
        assert!(loaded.try_code_loc(bad_method).is_none());
    }
}
