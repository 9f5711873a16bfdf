//! The machine: processes + scheduler + API dispatch over a [`System`].

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use tracer::flight::{AttributionStep, FlightHist, FlightRecorder, SpanKind};
use tracer::{Counter, Event, EventKind, RegOp, Telemetry, Trace};

use crate::api::{Api, ApiCall, ApiHook, HookTable};
use crate::clock::API_CALL_COST_MS;
use crate::error::{NtStatus, SimError};
use crate::fs::Glob;
use crate::process::{Peb, Pid, ProcState, Process};
use crate::program::{ProcessCtx, Program};
use crate::registry::RegValue;
use crate::system::{OsVersion, System};
use crate::values::{Args, Value};

/// Default per-sample execution budget: the paper "ran the malware sample
/// for one minute" before resetting the machine.
pub const DEFAULT_BUDGET_MS: u64 = 60_000;

/// Hard cap on processes created in one run (fork-bomb containment for the
/// simulator itself; Scarecrow's own mitigation is separate).
pub const DEFAULT_MAX_PROCESSES: usize = 4_096;

/// A simulated Windows machine: system state, a process table, registered
/// program images, and a deterministic run-to-completion scheduler.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use winsim::{Machine, System, Program, ProcessCtx};
///
/// struct Hello;
/// impl Program for Hello {
///     fn image_name(&self) -> &str { "hello.exe" }
///     fn run(&self, ctx: &mut ProcessCtx<'_>) {
///         ctx.create_file(r"C:\hello.txt");
///     }
/// }
///
/// let mut m = Machine::new(System::new());
/// m.register_program(Arc::new(Hello));
/// m.launch("hello.exe")?;
/// m.run();
/// assert!(m.system().fs.exists(r"C:\hello.txt"));
/// # Ok::<(), winsim::SimError>(())
/// ```
///
/// Cloning a machine is cheap: the registry and filesystem are
/// base-plus-overlay stores whose base is `Arc`-shared; the event log, the
/// network tables, the DLL registry and every process record are
/// `Arc`-shared. A clone of a freshly built preset is therefore one
/// refcount bump per process and per shared table, plus the process
/// table's own B-tree nodes and a few small plain fields (identity
/// strings, the hardware description); see [`MachineSnapshot`]. A
/// registry or file write on a clone lands in that clone's own small
/// delta; a process or network write copies that one record or table.
#[derive(Clone)]
pub struct Machine {
    sys: System,
    procs: BTreeMap<Pid, Arc<Process>>,
    programs: HashMap<String, Arc<dyn Program>>,
    queue: VecDeque<Pid>,
    trace: Trace,
    next_pid: Pid,
    created: usize,
    explorer: Pid,
    /// Hooks injected into every newly created process (a sandbox monitor
    /// such as Cuckoo does exactly this to analyzed samples).
    autoinject: Vec<(Api, Arc<dyn ApiHook>)>,
    /// Live Toolhelp32 snapshots: handle → (images, cursor).
    snapshots: HashMap<u64, (Vec<Value>, usize)>,
    next_snapshot: u64,
    /// Per-run virtual-time budget.
    pub budget_ms: u64,
    /// Process-creation cap.
    pub max_processes: usize,
    /// Telemetry recorder, when attached; `None` costs one branch per
    /// dispatch.
    telemetry: Option<Arc<Telemetry>>,
    /// Flight recorder for causal spans, when attached; `None` costs one
    /// branch per dispatch. Owned (not shared): `call_api` is `&mut self`,
    /// so recording needs no locks.
    flight: Option<FlightRecorder>,
    /// The deception state of the current run.
    deception: DeceptionRecord,
}

/// One deception decision — the fingerprinting event `scarecrow.dll`
/// reports to `scarecrow.exe` (Section III-B): a hooked API answered a
/// probe of `resource` with `answer`, fabricated for `profile`. The one
/// record of a fabricated answer, from the rule that makes it to the report
/// that prints it; a literal resource or answer costs no allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// The hooked API that answered.
    pub api: Api,
    /// The probed resource's category.
    pub category: &'static str,
    /// The probed resource (path, name, key, domain, …).
    pub resource: Cow<'static, str>,
    /// The profile whose planted resource answered.
    pub profile: &'static str,
    /// Human-readable fabricated answer.
    pub answer: Cow<'static, str>,
    /// Virtual time of the decision.
    pub time_ms: u64,
}

impl std::fmt::Display for Decision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{} ms] {}() fingerprinted {} resource {:?} ({} profile)",
            self.time_ms, self.api, self.category, self.resource, self.profile
        )
    }
}

impl From<&Decision> for AttributionStep {
    fn from(d: &Decision) -> AttributionStep {
        AttributionStep {
            time_ms: d.time_ms,
            artifact: d.resource.clone(),
            category: d.category,
            api: d.api.name(),
            handler: d.profile,
            answer: d.answer.clone(),
        }
    }
}

/// The deception state of one run, owned by the machine that runs it:
/// plain data that hooks reach through [`ApiCall::machine`]. A machine
/// instantiated from a [`MachineSnapshot`] starts with an empty record.
#[derive(Debug, Clone, Default)]
pub struct DeceptionRecord {
    /// Every decision, in order. Private: [`Machine::record_decision`] is
    /// the only way in, so no decision skips telemetry or the flight
    /// recorder.
    decisions: Vec<Decision>,
    /// Process creations seen per (lowercased) image.
    pub spawn_counts: BTreeMap<String, usize>,
    /// The first platform profile the run fingerprinted — the one an
    /// exclusive-mode engine keeps answering with.
    pub committed_profile: Option<&'static str>,
}

impl DeceptionRecord {
    /// Every decision of the run, in order.
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// The decisions, consuming the record.
    pub fn into_decisions(self) -> Vec<Decision> {
        self.decisions
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("env", &self.sys.config.kind)
            .field("processes", &self.procs.len())
            .field("queued", &self.queue.len())
            .field("trace_events", &self.trace.len())
            .finish()
    }
}

impl Machine {
    /// Creates a machine over the given system state, with the standard
    /// `System` and `explorer.exe` processes present.
    pub fn new(sys: System) -> Self {
        let cores = sys.hardware.num_cores;
        let mut m = Machine {
            sys,
            procs: BTreeMap::new(),
            programs: HashMap::new(),
            queue: VecDeque::new(),
            trace: Trace::new(""),
            next_pid: 100,
            created: 0,
            explorer: 0,
            autoinject: Vec::new(),
            snapshots: HashMap::new(),
            next_snapshot: 0x51AB_0000,
            budget_ms: DEFAULT_BUDGET_MS,
            max_processes: DEFAULT_MAX_PROCESSES,
            telemetry: None,
            flight: None,
            deception: DeceptionRecord::default(),
        };
        let peb = Peb { being_debugged: false, number_of_processors: cores };
        let mut system_proc = Process::new(4, 0, "System", "System", peb);
        system_proc.is_system = true;
        m.procs.insert(4, Arc::new(system_proc));
        m.explorer = m.add_system_process("explorer.exe");
        m
    }

    /// The passive system state.
    pub fn system(&self) -> &System {
        &self.sys
    }

    /// Mutable access to the system state (presets, payload helpers).
    pub fn system_mut(&mut self) -> &mut System {
        &mut self.sys
    }

    /// Attaches (or detaches) a telemetry recorder. Every subsequent API
    /// dispatch records its call count and virtual-clock cost.
    pub fn set_telemetry(&mut self, telemetry: Option<Arc<Telemetry>>) {
        self.telemetry = telemetry;
    }

    /// The attached telemetry recorder, if any.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// Attaches a flight recorder: with [`Machine::take_flight`], the one
    /// way to arm it, used by whoever owns the machine (the harness, or a
    /// direct caller). Every subsequent API dispatch opens an
    /// `api_dispatch` span and feeds the dispatch-cost histogram.
    pub fn set_flight(&mut self, flight: Option<FlightRecorder>) {
        self.flight = flight;
    }

    /// Detaches and returns the flight recorder (the harness takes it back
    /// between runs to merge worker streams).
    pub fn take_flight(&mut self) -> Option<FlightRecorder> {
        self.flight.take()
    }

    /// Whether a flight recorder is attached.
    pub fn flight_active(&self) -> bool {
        self.flight.is_some()
    }

    /// Opens a child span (hook chain / handler) at the current virtual
    /// time. One branch when no recorder is attached.
    #[inline]
    pub fn flight_begin(&mut self, kind: SpanKind, name: &'static str, pid: Pid) {
        if let Some(f) = self.flight.as_mut() {
            f.begin_child(kind, name, u64::from(pid), self.sys.clock.now_ms());
        }
    }

    /// Closes the innermost child span at the current virtual time.
    #[inline]
    pub fn flight_end(&mut self) {
        if let Some(f) = self.flight.as_mut() {
            f.end_child(self.sys.clock.now_ms());
        }
    }

    /// The run's deception record.
    pub fn deception(&self) -> &DeceptionRecord {
        &self.deception
    }

    /// Mutable access to the run's deception record.
    pub fn deception_mut(&mut self) -> &mut DeceptionRecord {
        &mut self.deception
    }

    /// Takes the run's deception record, leaving an empty one.
    pub fn take_deception(&mut self) -> DeceptionRecord {
        std::mem::take(&mut self.deception)
    }

    /// Records one deception decision, the one path every decision takes:
    /// it counts the decision on the attached telemetry recorder, counts it
    /// on the attached flight recorder (which copies it into the sample's
    /// attribution chain only while the chain is under its cap), and moves
    /// it into the run's [`DeceptionRecord`].
    pub fn record_decision(&mut self, decision: Decision) {
        if let Some(t) = &self.telemetry {
            t.record_deception(decision.api as usize, decision.profile);
        }
        if let Some(f) = self.flight.as_mut() {
            f.record_decision(|| AttributionStep::from(&decision));
        }
        self.deception.decisions.push(decision);
    }

    /// Records a raw wall-clock observation into one of the recorder's
    /// histograms.
    #[inline]
    pub fn flight_hist(&mut self, hist: FlightHist, value_ns: u64) {
        if let Some(f) = self.flight.as_mut() {
            f.record_hist(hist, value_ns);
        }
    }

    /// The pid of `explorer.exe` (the normal double-click parent).
    pub fn explorer_pid(&self) -> Pid {
        self.explorer
    }

    /// Adds an inert, program-less process (pre-existing system services,
    /// analysis daemons, `VBoxService.exe`, …). Returns its pid.
    pub fn add_system_process(&mut self, image: &str) -> Pid {
        let pid = self.alloc_pid();
        let peb = Peb { being_debugged: false, number_of_processors: self.sys.hardware.num_cores };
        let mut p = Process::new(pid, 4, image, &format!(r"C:\Windows\System32\{image}"), peb);
        p.is_system = true;
        self.procs.insert(pid, Arc::new(p));
        pid
    }

    /// Registers a runnable program image.
    pub fn register_program(&mut self, prog: Arc<dyn Program>) {
        self.programs.insert(prog.image_name().to_ascii_lowercase(), prog);
    }

    /// Whether an image has a registered program body.
    pub fn has_program(&self, image: &str) -> bool {
        self.programs.contains_key(&image.to_ascii_lowercase())
    }

    /// Adds a hook that is automatically installed on `api` in every
    /// subsequently created process (models an always-on sandbox monitor).
    pub fn add_autoinject_hook(&mut self, api: Api, hook: Arc<dyn ApiHook>) {
        self.autoinject.push((api, hook));
    }

    /// Launches a registered program as a child of `explorer.exe` (the
    /// normal end-user start) and sets it as the trace root.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownImage`] if no program with this image was
    /// registered.
    pub fn launch(&mut self, image: &str) -> Result<Pid, SimError> {
        let parent = self.explorer;
        self.launch_as_child(image, parent)
    }

    /// Launches a registered program as a child of an arbitrary parent
    /// process (the Scarecrow controller uses this so the sample sees
    /// `scarecrow.exe` as its parent, mimicking a sandbox daemon).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownImage`] if no program with this image was
    /// registered, or [`SimError::NoSuchProcess`] for a bad parent pid.
    pub fn launch_as_child(&mut self, image: &str, parent: Pid) -> Result<Pid, SimError> {
        if !self.has_program(image) {
            return Err(SimError::UnknownImage(image.to_owned()));
        }
        if !self.procs.contains_key(&parent) {
            return Err(SimError::NoSuchProcess(parent));
        }
        if self.trace.root_image().is_empty() {
            self.trace = Trace::new(image);
        }
        Ok(self.spawn(image, parent, false))
    }

    /// Creates a process record, optionally suspended, and (if runnable)
    /// queues it. Auto-inject hooks are installed before the process ever
    /// runs. Returns 0 if the process cap is reached.
    pub fn spawn(&mut self, image: &str, parent: Pid, suspended: bool) -> Pid {
        if self.created >= self.max_processes {
            return 0;
        }
        self.created += 1;
        let pid = self.alloc_pid();
        let peb = Peb { being_debugged: false, number_of_processors: self.sys.hardware.num_cores };
        let path = format!("{}\\{}", self.sys.config.download_dir, image);
        let mut p = Process::new(pid, parent, image, &path, peb);
        if suspended {
            p.state = ProcState::Suspended;
        }
        self.procs.insert(pid, Arc::new(p));
        let inject = std::mem::take(&mut self.autoinject);
        for (api, hook) in &inject {
            self.install_hook(pid, *api, Arc::clone(hook));
        }
        self.autoinject = inject;
        self.record(pid, EventKind::ProcessCreate { pid, parent, image: image.to_owned() });
        if !suspended {
            self.queue.push_back(pid);
        }
        pid
    }

    /// Runs queued processes until the queue drains, the virtual-time
    /// budget is exhausted, or the process cap is hit.
    pub fn run(&mut self) {
        while let Some(pid) = self.queue.pop_front() {
            if self.sys.clock.now_ms() >= self.budget_ms {
                break;
            }
            let (image, runnable) = match self.procs.get(&pid) {
                Some(p) if p.state == ProcState::Running => (p.image.clone(), true),
                _ => (String::new(), false),
            };
            if !runnable {
                continue;
            }
            if let Some(prog) = self.programs.get(&image.to_ascii_lowercase()).cloned() {
                let mut ctx = ProcessCtx::new(self, pid);
                prog.run(&mut ctx);
            }
            self.finish_process(pid, 0);
        }
    }

    /// Convenience: launch + run + hand back the trace (leaving the machine
    /// inspectable).
    ///
    /// # Errors
    ///
    /// Propagates [`Machine::launch`] errors.
    pub fn run_sample(&mut self, image: &str) -> Result<&Trace, SimError> {
        self.launch(image)?;
        self.run();
        Ok(&self.trace)
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Names the trace's root image if it has none yet (controllers that
    /// bypass [`Machine::launch`] call this before spawning the sample).
    pub fn set_trace_root(&mut self, image: &str) {
        if self.trace.root_image().is_empty() {
            self.trace = Trace::new(image);
        }
    }

    /// Takes the trace, leaving an empty one with the same root.
    pub fn take_trace(&mut self) -> Trace {
        let root = self.trace.root_image().to_owned();
        std::mem::replace(&mut self.trace, Trace::new(root))
    }

    /// A process by pid.
    pub fn process(&self, pid: Pid) -> Option<&Process> {
        self.procs.get(&pid).map(|p| &**p)
    }

    /// Mutable process access (used by the injection engine). The record
    /// is copied here if a snapshot or sibling machine still shares it, so
    /// read through [`Machine::process`] first when the write is
    /// conditional.
    pub fn process_mut(&mut self, pid: Pid) -> Option<&mut Process> {
        self.procs.get_mut(&pid).map(Arc::make_mut)
    }

    /// The first live process with the given image name.
    pub fn find_process(&self, image: &str) -> Option<&Process> {
        self.processes()
            .find(|p| p.state != ProcState::Terminated && p.image.eq_ignore_ascii_case(image))
    }

    /// All process records (including terminated ones).
    pub fn processes(&self) -> impl Iterator<Item = &Process> {
        self.procs.values().map(|p| &**p)
    }

    /// Installs an inline hook on `api` in process `pid`: the hook is
    /// appended to the chain (outermost first), so the API's prologue bytes
    /// read as a `JMP` — visible to anti-hook checks, exactly as in the
    /// paper's Figure 1.
    pub fn install_hook(&mut self, pid: Pid, api: Api, hook: Arc<dyn ApiHook>) {
        if let Some(p) = self.process_mut(pid) {
            let hooks = Arc::make_mut(&mut p.hooks);
            let chain = hooks.entry(api).or_insert_with(|| Arc::new(Vec::new()));
            Arc::make_mut(chain).push(hook);
            if let Some(t) = &self.telemetry {
                t.incr(Counter::HookInstalls);
            }
        }
    }

    /// Installs a prebuilt [`HookTable`] into `pid` wholesale.
    ///
    /// When the process has no hooks yet (the common per-child injection
    /// path) this *shares* the table's map — one refcount bump instead of
    /// one allocation per hook. Otherwise the table's chains are appended
    /// to the existing ones, in table iteration order, exactly as repeated
    /// [`Machine::install_hook`] calls would. `HookInstalls` telemetry
    /// advances by the table's hook count either way.
    pub fn install_hook_table(&mut self, pid: Pid, table: &HookTable) {
        let Some(p) = self.process_mut(pid) else { return };
        if p.hooks.is_empty() {
            p.hooks = Arc::clone(&table.hooks);
        } else {
            let hooks = Arc::make_mut(&mut p.hooks);
            for (api, chain) in table.hooks.iter() {
                match hooks.entry(*api) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(Arc::clone(chain));
                    }
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        Arc::make_mut(e.get_mut()).extend(chain.iter().cloned());
                    }
                }
            }
        }
        if let Some(t) = &self.telemetry {
            t.add(Counter::HookInstalls, table.count as u64);
        }
    }

    /// Dispatches an API call from process `pid` through its hook chain.
    ///
    /// Every call charges virtual time; terminated processes get
    /// `STATUS_UNSUCCESSFUL` back (their calls go nowhere).
    pub fn call_api(&mut self, pid: Pid, api: Api, args: Args) -> Value {
        self.sys.clock.charge_api_call();
        if let Some(t) = &self.telemetry {
            t.record_api(api as usize, API_CALL_COST_MS);
        }
        self.flight_begin(SpanKind::ApiDispatch, api.name(), pid);
        let value = self.dispatch_api(pid, api, args);
        self.flight_end();
        value
    }

    /// The dispatch body of [`Machine::call_api`], split out so the flight
    /// recorder brackets every exit path.
    fn dispatch_api(&mut self, pid: Pid, api: Api, args: Args) -> Value {
        if self.sys.clock.now_ms() >= self.budget_ms {
            // the paper's harness kills the sample when its one-minute
            // analysis window closes; packers that stall past the window
            // are cut off exactly as on the real cluster
            self.finish_process(pid, 258 /* WAIT_TIMEOUT */);
            return Value::Status(NtStatus::Unsuccessful);
        }
        let chain = match self.procs.get(&pid) {
            Some(p) if p.state == ProcState::Running => p.hooks.get(&api).cloned(),
            _ => return Value::Status(NtStatus::Unsuccessful),
        };
        let mut call = ApiCall { api, args, pid, machine: self, chain, idx: 0 };
        call.call_original()
    }

    /// Resumes a suspended process so the scheduler will run it (what
    /// `ResumeThread` on its main thread does). Returns whether the process
    /// was suspended.
    pub fn resume(&mut self, pid: Pid) -> bool {
        match self.procs.get_mut(&pid) {
            Some(p) if p.state == ProcState::Suspended => {
                Arc::make_mut(p).state = ProcState::Running;
                self.queue.push_back(pid);
                true
            }
            _ => false,
        }
    }

    /// Marks a process terminated and records the event (idempotent).
    pub fn finish_process(&mut self, pid: Pid, exit_code: i32) {
        let Some(p) = self.procs.get_mut(&pid) else { return };
        if p.state == ProcState::Terminated {
            return;
        }
        let p = Arc::make_mut(p);
        p.state = ProcState::Terminated;
        p.exit_code = exit_code;
        let image = p.image.clone();
        self.record(pid, EventKind::ProcessTerminate { pid, image, exit_code });
    }

    /// The listing of a live Toolhelp32 snapshot, for deception hooks
    /// that plant analysis-tool processes into it (`None` for a bad
    /// handle).
    pub fn snapshot_mut(&mut self, handle: u64) -> Option<&mut Vec<Value>> {
        self.snapshots.get_mut(&handle).map(|(images, _)| images)
    }

    /// Records a trace event at the current virtual time.
    pub fn record(&mut self, pid: Pid, kind: EventKind) {
        let time = self.sys.clock.now_ms();
        self.trace.record(Event::at(time, pid, kind));
    }

    fn alloc_pid(&mut self) -> Pid {
        let pid = self.next_pid;
        self.next_pid += 4;
        pid
    }

    /// Image names of the processes not yet terminated, in pid order: what
    /// every process-enumeration API lists.
    fn live_images(&self) -> impl Iterator<Item = &str> {
        self.procs.values().filter(|p| p.state != ProcState::Terminated).map(|p| p.image.as_str())
    }

    /// The default (unhooked) implementation of every API.
    ///
    /// This is what a hook's `call_original` bottoms out in; it consults and
    /// mutates system state and emits kernel trace events.
    pub(crate) fn default_api(machine: &mut Machine, pid: Pid, api: Api, args: &Args) -> Value {
        let m = machine;
        match api {
            // ---------- registry ----------
            Api::RegOpenKeyEx | Api::NtOpenKeyEx => {
                let path = args.str(0).to_owned();
                let status = m.sys.registry.open_key(&path);
                m.record(pid, EventKind::Registry { op: RegOp::OpenKey, path });
                Value::Status(status)
            }
            Api::RegQueryValueEx | Api::NtQueryValueKey => {
                let path = args.str(0).to_owned();
                let name = args.str(1).to_owned();
                let out = match m.sys.registry.value(&path, &name) {
                    Some(v) => reg_to_value(v),
                    None => Value::Status(NtStatus::ObjectNameNotFound),
                };
                m.record(
                    pid,
                    EventKind::Registry { op: RegOp::QueryValue, path: format!("{path}\\{name}") },
                );
                out
            }
            Api::RegSetValueEx => {
                let path = args.str(0).to_owned();
                let name = args.str(1).to_owned();
                let value = value_to_reg(args.get(2).cloned().unwrap_or(Value::Unit));
                m.sys.registry.set_value(&path, &name, value);
                m.record(
                    pid,
                    EventKind::Registry { op: RegOp::SetValue, path: format!("{path}\\{name}") },
                );
                Value::Status(NtStatus::Success)
            }
            Api::RegCreateKeyEx => {
                let path = args.str(0).to_owned();
                m.sys.registry.create_key(&path);
                m.record(pid, EventKind::Registry { op: RegOp::CreateKey, path });
                Value::Status(NtStatus::Success)
            }
            Api::RegDeleteKey => {
                let path = args.str(0).to_owned();
                let removed = m.sys.registry.delete_key(&path);
                m.record(pid, EventKind::Registry { op: RegOp::DeleteKey, path });
                if removed > 0 {
                    Value::Status(NtStatus::Success)
                } else {
                    Value::Status(NtStatus::ObjectNameNotFound)
                }
            }
            Api::RegEnumKeyEx => {
                let path = args.str(0);
                let index = args.u64(1) as usize;
                match m.sys.registry.subkey(path, index) {
                    Some(name) => Value::from(name),
                    None => Value::Status(NtStatus::NoMoreEntries),
                }
            }
            Api::NtQueryKey => {
                let path = args.str(0).to_owned();
                let what = args.str(1).to_owned();
                if !m.sys.registry.key_exists(&path) {
                    return Value::Status(NtStatus::ObjectNameNotFound);
                }
                let count = match what.as_str() {
                    "values" => m.sys.registry.value_count(&path),
                    _ => m.sys.registry.subkey_count(&path),
                };
                m.record(pid, EventKind::Registry { op: RegOp::QueryValue, path });
                Value::U64(count as u64)
            }

            // ---------- files ----------
            Api::NtQueryAttributesFile => {
                let path = args.str(0).to_owned();
                let status = m.sys.fs.query_attributes(&path);
                m.record(pid, EventKind::FileRead { path });
                Value::Status(status)
            }
            Api::GetFileAttributes => {
                let path = args.str(0).to_owned();
                let out = if m.sys.fs.exists(&path) {
                    Value::U64(0x80) // FILE_ATTRIBUTE_NORMAL
                } else if m.sys.fs.dir_exists(&path) {
                    Value::U64(0x10) // FILE_ATTRIBUTE_DIRECTORY
                } else {
                    Value::U64(0xFFFF_FFFF) // INVALID_FILE_ATTRIBUTES
                };
                m.record(pid, EventKind::FileRead { path });
                out
            }
            Api::NtCreateFile | Api::CreateFile => {
                let path = args.str(0).to_owned();
                let create = args.str(1) == "create";
                if let Some(device) = path.strip_prefix(r"\\.\") {
                    let ok = m.sys.hardware.has_device(device);
                    m.record(pid, EventKind::FileRead { path });
                    return Value::Status(if ok {
                        NtStatus::Success
                    } else {
                        NtStatus::ObjectNameNotFound
                    });
                }
                if create {
                    m.sys.fs.create(&path, 0, "created");
                    m.record(pid, EventKind::FileCreate { path });
                    Value::Status(NtStatus::Success)
                } else {
                    let status = m.sys.fs.query_attributes(&path);
                    m.record(pid, EventKind::FileRead { path });
                    Value::Status(status)
                }
            }
            Api::ReadFile => {
                let path = args.str(0).to_owned();
                let ok = m.sys.fs.exists(&path);
                m.record(pid, EventKind::FileRead { path });
                Value::Status(if ok { NtStatus::Success } else { NtStatus::ObjectNameNotFound })
            }
            Api::WriteFile => {
                let path = args.str(0).to_owned();
                let bytes = args.u64(1).max(1);
                m.sys.fs.write(&path, bytes);
                m.record(pid, EventKind::FileWrite { path, bytes });
                Value::Status(NtStatus::Success)
            }
            Api::DeleteFile => {
                let path = args.str(0).to_owned();
                let ok = m.sys.fs.delete(&path);
                m.record(pid, EventKind::FileDelete { path });
                Value::Bool(ok)
            }
            Api::MoveFile => {
                let from = args.str(0).to_owned();
                let to = args.str(1).to_owned();
                let ok = m.sys.fs.rename(&from, &to);
                if ok {
                    m.record(pid, EventKind::FileRename { from, to });
                }
                Value::Bool(ok)
            }
            Api::FindFirstFile => {
                let glob = Glob::new(args.str(0));
                let paths = m.sys.fs.iter().filter(|f| glob.matches(&f.path));
                Value::List(paths.map(|f| Value::from(f.path.as_str())).collect())
            }
            Api::GetDiskFreeSpaceEx => {
                m.record(pid, EventKind::InfoQuery { what: "GetDiskFreeSpaceEx".to_owned() });
                let root = args.str(0).chars().next().unwrap_or('C');
                match m.sys.fs.drive(root) {
                    Some(d) => {
                        Value::List(vec![Value::U64(d.total_bytes), Value::U64(d.free_bytes)])
                    }
                    None => Value::Status(NtStatus::ObjectNameNotFound),
                }
            }

            // ---------- processes & debugging ----------
            Api::CreateProcess | Api::ShellExecuteEx => {
                let image = args.str(0).to_owned();
                let suspended = args.bool(1);
                let child = m.spawn(&image, pid, suspended);
                Value::U64(u64::from(child))
            }
            Api::OpenProcess => {
                let image = args.str(0);
                match m.find_process(image) {
                    Some(p) => Value::U64(u64::from(p.pid)),
                    None => Value::U64(0),
                }
            }
            Api::TerminateProcess => {
                let target = args.u64(0) as Pid;
                if m.procs.contains_key(&target) {
                    m.finish_process(target, 1);
                    Value::Bool(true)
                } else {
                    Value::Bool(false)
                }
            }
            Api::ExitProcess => {
                let code = args.get(0).and_then(Value::as_i64).unwrap_or(0) as i32;
                m.finish_process(pid, code);
                Value::Unit
            }
            Api::ResumeThread => Value::Bool(m.resume(args.u64(0) as Pid)),
            Api::Sleep => {
                let ms = args.u64(0);
                m.sys.clock.advance(ms);
                Value::Unit
            }
            Api::GetTickCount => {
                m.record(pid, EventKind::InfoQuery { what: "GetTickCount".to_owned() });
                Value::U64(m.sys.clock.tick_count())
            }
            Api::IsDebuggerPresent | Api::CheckRemoteDebuggerPresent => {
                let v = m.procs.get(&pid).map(|p| p.peb.being_debugged).unwrap_or(false);
                m.record(pid, EventKind::DebugQuery { api: api.name().to_owned() });
                Value::Bool(v)
            }
            Api::NtQueryInformationProcess => {
                let class = args.str(0);
                let p = match m.procs.get(&pid) {
                    Some(p) => p,
                    None => return Value::Status(NtStatus::Unsuccessful),
                };
                match class {
                    "DebugPort" => {
                        let v = u64::from(p.peb.being_debugged);
                        m.record(
                            pid,
                            EventKind::DebugQuery { api: "NtQueryInformationProcess".to_owned() },
                        );
                        Value::U64(v)
                    }
                    "ParentPid" => Value::U64(u64::from(p.parent)),
                    "ParentImage" => {
                        let img = m.procs.get(&p.parent).map_or("", |pp| pp.image.as_str());
                        Value::from(img)
                    }
                    _ => Value::Status(NtStatus::InvalidParameter),
                }
            }
            Api::OutputDebugString => {
                let v = m.procs.get(&pid).map(|p| p.peb.being_debugged).unwrap_or(false);
                Value::Bool(v)
            }
            Api::CloseHandle => {
                // Closing the canonical invalid handle raises an exception
                // under a debugger; otherwise it just fails quietly.
                let handle = args.u64(0);
                Value::Bool(handle != 0xDEAD_BEEF)
            }
            Api::EnumProcesses => Value::List(m.live_images().map(Value::from).collect()),
            Api::GetCurrentProcessId => Value::U64(u64::from(pid)),
            Api::CreateToolhelp32Snapshot => {
                let images: Vec<Value> = m.live_images().map(Value::from).collect();
                let handle = m.next_snapshot;
                m.next_snapshot += 4;
                m.snapshots.insert(handle, (images, 0));
                Value::U64(handle)
            }
            Api::Process32Next => {
                let handle = args.u64(0);
                match m.snapshots.get_mut(&handle) {
                    Some((images, cursor)) => match images.get(*cursor) {
                        Some(image) => {
                            *cursor += 1;
                            image.clone()
                        }
                        None => Value::Status(NtStatus::NoMoreEntries),
                    },
                    None => Value::Status(NtStatus::InvalidHandle),
                }
            }
            Api::WriteProcessMemory => {
                let target = args.u64(0) as Pid;
                match m.procs.get(&target) {
                    Some(t) => {
                        let target_image = t.image.clone();
                        m.record(
                            pid,
                            EventKind::ProcessInject { source: pid, target, target_image },
                        );
                        Value::Bool(true)
                    }
                    None => Value::Bool(false),
                }
            }

            // ---------- modules ----------
            Api::GetModuleHandle => {
                let name = args.str(0).to_owned();
                let loaded = m.procs.get(&pid).map(|p| p.module_loaded(&name)).unwrap_or(false);
                m.record(pid, EventKind::ModuleQuery { name });
                Value::U64(if loaded { 0x1000_0000 } else { 0 })
            }
            Api::LoadLibrary => {
                let name = args.str(0).to_owned();
                if !m.sys.dll_available(&name) {
                    m.record(pid, EventKind::ModuleQuery { name });
                    return Value::U64(0);
                }
                let Some(p) = m.procs.get_mut(&pid) else { return Value::U64(0) };
                // a module already mapped leaves the process record shared
                if !p.module_loaded(&name) {
                    Arc::make_mut(p).modules.push(name.clone());
                    m.record(pid, EventKind::ImageLoad { pid, image: name });
                }
                Value::U64(0x1000_0000)
            }
            Api::EnumModules => {
                let list = m
                    .procs
                    .get(&pid)
                    .map(|p| p.modules.iter().map(|s| Value::from(s.as_str())).collect())
                    .unwrap_or_default();
                Value::List(list)
            }
            Api::GetModuleFileName => {
                let path = m.procs.get(&pid).map_or("", |p| p.image_path.as_str());
                Value::from(path)
            }
            Api::GetProcAddress => {
                let module = args.str(0);
                let proc = args.str(1);
                Value::U64(if m.sys.has_export(module, proc) { 0x2000_0000 } else { 0 })
            }

            // ---------- system information ----------
            Api::GetSystemInfo => {
                m.record(pid, EventKind::InfoQuery { what: "GetSystemInfo".to_owned() });
                Value::U64(u64::from(m.sys.hardware.num_cores))
            }
            Api::GlobalMemoryStatusEx => {
                m.record(pid, EventKind::InfoQuery { what: "GlobalMemoryStatusEx".to_owned() });
                Value::U64(m.sys.hardware.memory_mb)
            }
            Api::NtQuerySystemInformation => {
                let class = args.str(0);
                match class {
                    "ProcessInformation" => Value::List(m.live_images().map(Value::from).collect()),
                    "RegistryQuota" => Value::U64(m.sys.registry.quota_used_bytes()),
                    "KernelDebugger" => Value::Bool(false),
                    _ => Value::Status(NtStatus::InvalidParameter),
                }
            }
            Api::GetUserName => Value::from(m.sys.config.user_name.as_str()),
            Api::GetComputerName => Value::from(m.sys.config.computer_name.as_str()),
            Api::GetCursorPos => {
                let (x, y) = m.sys.input.cursor_at(m.sys.clock.now_ms());
                Value::List(vec![Value::I64(i64::from(x)), Value::I64(i64::from(y))])
            }
            Api::GetAdaptersInfo => Value::from(m.sys.hardware.mac_string()),
            Api::IsNativeVhdBoot => {
                if m.sys.config.os >= OsVersion::Win8 {
                    Value::Bool(false)
                } else {
                    Value::Status(NtStatus::Unsuccessful) // API absent on Win7
                }
            }
            Api::GetKeyState => Value::I64(0),

            // ---------- GUI ----------
            Api::FindWindow => {
                let class = args.str(0).to_owned();
                let title = args.str(1).to_owned();
                let found = m.sys.windows.find(&class, &title);
                m.record(pid, EventKind::WindowQuery { class, title });
                Value::Bool(found)
            }

            // ---------- network ----------
            Api::DnsQuery => {
                let domain = args.str(0).to_owned();
                let resolved = m.sys.network.resolve(&domain);
                m.record(pid, EventKind::DnsQuery { domain, resolved: resolved.map(fmt_addr) });
                match resolved {
                    Some(addr) => Value::from(fmt_addr(addr)),
                    None => Value::Status(NtStatus::ObjectNameNotFound),
                }
            }
            Api::InternetOpenUrl => {
                let host = args.str(0).to_owned();
                let status = m.sys.network.http_get(&host);
                m.record(pid, EventKind::HttpRequest { host, status });
                match status {
                    Some(code) => Value::U64(u64::from(code)),
                    None => Value::U64(0),
                }
            }
            Api::DnsGetCacheDataTable => {
                let list: Vec<Value> = m
                    .sys
                    .network
                    .dns_cache()
                    .iter()
                    .map(|e| Value::from(e.domain.as_str()))
                    .collect();
                Value::List(list)
            }

            // ---------- event log / sync ----------
            Api::EvtNext => {
                let limit = args.u64(0) as usize;
                let list: Vec<Value> = m
                    .sys
                    .eventlog
                    .recent(limit)
                    .iter()
                    .map(|e| Value::Str(Arc::clone(&e.source)))
                    .collect();
                Value::List(list)
            }
            Api::RaiseException => {
                let cycles = m.sys.hardware.exception_dispatch_cycles;
                m.sys.hardware.rdtsc(); // dispatching consumes time
                Value::U64(cycles)
            }
            Api::CreateMutex => {
                let name = args.str(0).to_owned();
                let existed = !m.sys.mutexes.insert(name.clone());
                if !existed {
                    m.record(pid, EventKind::MutexCreate { name });
                }
                Value::U64(if existed { 2 } else { 1 })
            }
        }
    }
}

/// An immutable snapshot of a fully built machine, shareable across
/// threads behind an `Arc`.
///
/// Building a preset machine (registry tree, virtual filesystem, seeded
/// event log, process table) costs milliseconds; a corpus sweep needs two
/// fresh machines per sample. Capturing the built machine once and
/// [`MachineSnapshot::instantiate`]-ing per run replaces ~2,100 full
/// builds in the Figure 4 sweep with one build plus clones that copy no
/// store, no process record and no network table. The registry and
/// filesystem keep the template's stores as a shared base and put each
/// run's writes in a per-run delta, so a run that sets one value copies
/// one key node, a delete leaves a tombstone, and dropping the run
/// frees only its delta. The event log is never written at run time.
/// Process records and the network tables are shared with the template
/// and copied on a run's first write to them: terminating, resuming,
/// hooking or loading a module into a preset process copies that one
/// record, and resolving a domain not yet cached copies the DNS cache.
/// Writes that would change nothing (resuming a running process, loading
/// a mapped module, removing hooks a process lacks) read first and copy
/// nothing.
///
/// ```
/// use winsim::{Machine, MachineSnapshot, System};
/// let mut m = Machine::new(System::new());
/// m.system_mut().fs.create(r"C:\preset.txt", 1, "t");
/// let snap = MachineSnapshot::capture(&m);
/// let mut run1 = snap.instantiate();
/// run1.system_mut().fs.delete(r"C:\preset.txt");
/// let run2 = snap.instantiate();
/// assert!(run2.system().fs.exists(r"C:\preset.txt")); // isolated
/// ```
pub struct MachineSnapshot {
    template: Machine,
}

impl MachineSnapshot {
    /// Captures the machine's current state. Any attached telemetry or
    /// flight recorder and the deception record are dropped from the
    /// template; runs instantiated from the snapshot attach their own.
    pub fn capture(machine: &Machine) -> Self {
        let mut template = machine.clone();
        template.telemetry = None;
        template.flight = None;
        template.deception = DeceptionRecord::default();
        MachineSnapshot { template }
    }

    /// A fresh machine identical to the captured one.
    pub fn instantiate(&self) -> Machine {
        self.template.clone()
    }
}

impl std::fmt::Debug for MachineSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MachineSnapshot").field("template", &self.template).finish()
    }
}

fn fmt_addr(a: [u8; 4]) -> String {
    format!("{}.{}.{}.{}", a[0], a[1], a[2], a[3])
}

fn reg_to_value(v: &RegValue) -> Value {
    match v {
        RegValue::Sz(s) => Value::from(s.as_str()),
        RegValue::Dword(d) => Value::U64(u64::from(*d)),
        RegValue::Qword(q) => Value::U64(*q),
        RegValue::Binary(b) => Value::Bytes(b.clone()),
        RegValue::MultiSz(l) => Value::List(l.iter().map(|s| Value::from(s.as_str())).collect()),
    }
}

fn value_to_reg(v: Value) -> RegValue {
    match v {
        Value::Str(s) => RegValue::Sz(s.to_string()),
        Value::U64(u) => RegValue::Qword(u),
        Value::I64(i) => RegValue::Qword(i as u64),
        Value::Bool(b) => RegValue::Dword(u32::from(b)),
        Value::Bytes(b) => RegValue::Binary(b),
        Value::List(l) => {
            RegValue::MultiSz(l.into_iter().map(|v| v.as_str().unwrap_or("").to_owned()).collect())
        }
        _ => RegValue::Dword(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args;

    struct Touch;
    impl Program for Touch {
        fn image_name(&self) -> &str {
            "touch.exe"
        }
        fn run(&self, ctx: &mut ProcessCtx<'_>) {
            ctx.call(Api::WriteFile, args![r"C:\out.txt", 16u64]);
        }
    }

    struct Spawner;
    impl Program for Spawner {
        fn image_name(&self) -> &str {
            "spawner.exe"
        }
        fn run(&self, ctx: &mut ProcessCtx<'_>) {
            ctx.call(Api::CreateProcess, args!["touch.exe"]);
        }
    }

    fn machine() -> Machine {
        Machine::new(System::new())
    }

    #[test]
    fn launch_requires_registered_program() {
        let mut m = machine();
        assert!(matches!(m.launch("ghost.exe"), Err(SimError::UnknownImage(_))));
    }

    #[test]
    fn program_runs_and_mutates_fs() {
        let mut m = machine();
        m.register_program(Arc::new(Touch));
        m.run_sample("touch.exe").unwrap();
        assert!(m.system().fs.exists(r"C:\out.txt"));
        let tags: Vec<_> = m.trace().events().iter().map(|e| e.kind.tag()).collect();
        assert!(tags.contains(&"proc_create"));
        assert!(tags.contains(&"file_write"));
        assert!(tags.contains(&"proc_term"));
    }

    #[test]
    fn spawned_children_run_too() {
        let mut m = machine();
        m.register_program(Arc::new(Spawner));
        m.register_program(Arc::new(Touch));
        m.run_sample("spawner.exe").unwrap();
        assert!(m.system().fs.exists(r"C:\out.txt"));
    }

    #[test]
    fn unknown_child_images_become_inert_stubs() {
        let mut m = machine();
        m.register_program(Arc::new(Spawner));
        m.launch("spawner.exe").unwrap();
        // retarget: spawner spawns touch.exe which is not registered here
        m.run();
        // the child appears in the process table and trace, but did nothing
        assert!(m.find_process("touch.exe").is_none()); // ran to termination
        assert!(m.trace().events().iter().any(
            |e| matches!(&e.kind, EventKind::ProcessCreate { image, .. } if image == "touch.exe")
        ));
    }

    #[test]
    fn budget_stops_the_scheduler() {
        struct Forever;
        impl Program for Forever {
            fn image_name(&self) -> &str {
                "forever.exe"
            }
            fn run(&self, ctx: &mut ProcessCtx<'_>) {
                ctx.call(Api::Sleep, args![30_000u64]);
                ctx.call(Api::CreateProcess, args!["forever.exe"]);
            }
        }
        let mut m = machine();
        m.register_program(Arc::new(Forever));
        m.run_sample("forever.exe").unwrap();
        // 60s budget / 30s sleep => only a couple of generations ran
        assert!(m.trace().self_spawn_count() <= 3);
    }

    #[test]
    fn process_cap_stops_forkbombs() {
        struct Bomb;
        impl Program for Bomb {
            fn image_name(&self) -> &str {
                "bomb.exe"
            }
            fn run(&self, ctx: &mut ProcessCtx<'_>) {
                ctx.call(Api::CreateProcess, args!["bomb.exe"]);
                ctx.call(Api::CreateProcess, args!["bomb.exe"]);
            }
        }
        let mut m = machine();
        m.max_processes = 50;
        m.register_program(Arc::new(Bomb));
        m.run_sample("bomb.exe").unwrap();
        assert!(m.processes().count() <= 60);
    }

    #[test]
    fn suspended_processes_wait_for_resume() {
        let mut m = machine();
        m.register_program(Arc::new(Touch));
        let pid = m.spawn("touch.exe", m.explorer_pid(), true);
        m.run();
        assert!(!m.system().fs.exists(r"C:\out.txt"));
        let r = m.call_api(pid, Api::ResumeThread, args![u64::from(pid)]);
        // ResumeThread is called *by* someone; use explorer as the caller
        assert_eq!(r, Value::Status(NtStatus::Unsuccessful)); // suspended procs can't call
        let explorer = m.explorer_pid();
        let r = m.call_api(explorer, Api::ResumeThread, args![u64::from(pid)]);
        assert_eq!(r, Value::Bool(true));
        m.run();
        assert!(m.system().fs.exists(r"C:\out.txt"));
    }

    #[test]
    fn hooks_intercept_and_can_fabricate() {
        let mut m = machine();
        m.register_program(Arc::new(Touch));
        let pid = m.launch("touch.exe").unwrap();
        m.install_hook(
            pid,
            Api::IsDebuggerPresent,
            Arc::new(|_c: &mut ApiCall<'_>| Value::Bool(true)),
        );
        let v = m.call_api(pid, Api::IsDebuggerPresent, Args::none());
        assert_eq!(v, Value::Bool(true));
        // prologue now shows the JMP patch
        assert_eq!(m.process(pid).unwrap().api_prologue(Api::IsDebuggerPresent)[0], 0xe9);
        // other APIs untouched
        assert_eq!(m.process(pid).unwrap().api_prologue(Api::Sleep)[0], 0x8b);
    }

    #[test]
    fn call_original_reaches_the_default_impl() {
        struct PassThrough;
        impl ApiHook for PassThrough {
            fn label(&self) -> &'static str {
                "pass"
            }
            fn invoke(&self, call: &mut ApiCall<'_>) -> Value {
                call.call_original()
            }
        }
        let mut m = machine();
        m.register_program(Arc::new(Touch));
        let pid = m.launch("touch.exe").unwrap();
        m.install_hook(pid, Api::GetTickCount, Arc::new(PassThrough));
        let v = m.call_api(pid, Api::GetTickCount, Args::none());
        assert!(v.as_u64().unwrap() > 0);
    }

    #[test]
    fn autoinject_applies_to_every_new_process() {
        let mut m = machine();
        m.add_autoinject_hook(
            Api::ShellExecuteEx,
            Arc::new(|c: &mut ApiCall<'_>| c.call_original()),
        );
        m.register_program(Arc::new(Touch));
        let pid = m.launch("touch.exe").unwrap();
        assert!(m.process(pid).unwrap().api_hooked(Api::ShellExecuteEx));
    }

    #[test]
    fn terminate_prevents_queued_process_from_running() {
        let mut m = machine();
        m.register_program(Arc::new(Touch));
        let pid = m.launch("touch.exe").unwrap();
        m.finish_process(pid, 9);
        m.run();
        assert!(!m.system().fs.exists(r"C:\out.txt"));
    }

    #[test]
    fn registry_apis_round_trip() {
        let mut m = machine();
        let pid = m.add_system_process("t.exe");
        m.call_api(pid, Api::RegCreateKeyEx, args![r"HKLM\SOFTWARE\Test"]);
        m.call_api(pid, Api::RegSetValueEx, args![r"HKLM\SOFTWARE\Test", "v", "data"]);
        let v = m.call_api(pid, Api::RegQueryValueEx, args![r"HKLM\SOFTWARE\Test", "v"]);
        assert_eq!(v.as_str(), Some("data"));
        let missing = m.call_api(pid, Api::RegQueryValueEx, args![r"HKLM\SOFTWARE\Test", "w"]);
        assert_eq!(missing.as_status(), NtStatus::ObjectNameNotFound);
    }

    #[test]
    fn device_opens_consult_hardware() {
        let mut m = machine();
        m.system_mut().hardware.devices.push("VBoxGuest".into());
        let pid = m.add_system_process("t.exe");
        let ok = m.call_api(pid, Api::CreateFile, args![r"\\.\VBoxGuest", "open"]);
        assert_eq!(ok.as_status(), NtStatus::Success);
        let bad = m.call_api(pid, Api::CreateFile, args![r"\\.\HGFS", "open"]);
        assert_eq!(bad.as_status(), NtStatus::ObjectNameNotFound);
    }

    #[test]
    fn flight_recorder_captures_dispatch_spans_and_histograms() {
        use tracer::flight::FlightConfig;
        let mut m = machine();
        m.register_program(Arc::new(Touch));
        let pid = m.launch("touch.exe").unwrap();
        m.install_hook(
            pid,
            Api::IsDebuggerPresent,
            Arc::new(|c: &mut ApiCall<'_>| c.call_original()),
        );
        m.set_flight(Some(FlightRecorder::new(FlightConfig::enabled())));
        m.call_api(pid, Api::IsDebuggerPresent, Args::none());
        m.call_api(pid, Api::GetTickCount, Args::none());
        let rec = m.take_flight().unwrap();
        assert!(!m.flight_active());
        let snap = rec.snapshot();
        let dispatches: Vec<_> =
            snap.spans.iter().filter(|s| s.kind == SpanKind::ApiDispatch).collect();
        assert_eq!(dispatches.len(), 2);
        assert_eq!(dispatches[0].name, "IsDebuggerPresent");
        assert_eq!(dispatches[0].start_ms, 1, "virtual clock charged before the span opens");
        assert_eq!(dispatches[1].name, "GetTickCount");
        assert_eq!(dispatches[1].start_ms, 2);
        assert_eq!(dispatches[0].pid, u64::from(pid));
        assert!(snap.hists.get("api_dispatch_ns").is_some_and(|h| h.count() == 2));
        assert!(
            snap.hists.get("trampoline_passthrough_ns").is_some_and(|h| h.count() == 1),
            "the hooked call fell through the trampoline once"
        );
    }

    #[test]
    fn snapshot_capture_drops_recorders() {
        use tracer::flight::FlightConfig;
        let mut m = machine();
        m.set_flight(Some(FlightRecorder::new(FlightConfig::enabled())));
        let snap = MachineSnapshot::capture(&m);
        let mut fresh = snap.instantiate();
        assert!(!fresh.flight_active());
        assert!(fresh.take_flight().is_none());
        assert!(fresh.telemetry().is_none());
    }

    #[test]
    fn record_decision_is_the_one_write_path() {
        use tracer::flight::FlightConfig;
        let mut m = machine();
        let telemetry = Arc::new(Telemetry::new(Api::telemetry_slot_names(), ["VMware"]));
        m.set_telemetry(Some(Arc::clone(&telemetry)));
        let mut flight = FlightRecorder::new(FlightConfig::enabled());
        flight.begin_sample("probe.exe", 0, 0);
        m.set_flight(Some(flight));
        let decision = Decision {
            api: Api::RegOpenKeyEx,
            category: "registry",
            resource: r"HKLM\VMW".into(),
            profile: "VMware",
            answer: "ok".into(),
            time_ms: m.system().clock.now_ms(),
        };
        m.record_decision(decision.clone());
        m.deception_mut().committed_profile = Some("VMware");
        m.deception_mut().spawn_counts.insert("probe.exe".into(), 3);
        assert_eq!(m.deception().decisions(), std::slice::from_ref(&decision));
        assert_eq!(
            decision.to_string(),
            r#"[0 ms] RegOpenKeyEx() fingerprinted registry resource "HKLM\\VMW" (VMware profile)"#
        );
        assert_eq!(telemetry.snapshot().counter(Counter::DeceptionTriggers), 1);
        let mut flight = m.take_flight().unwrap();
        flight.end_sample(m.system().clock.now_ms(), &tracer::Verdict::Indeterminate);
        let attribution = flight.snapshot().attribution_for("probe.exe").cloned().unwrap();
        assert_eq!(attribution.chain, [AttributionStep::from(&decision)]);
        assert_eq!(attribution.chain[0].answer, "ok");
        // a snapshot never carries a run's record into the next run
        let fresh = MachineSnapshot::capture(&m).instantiate();
        assert!(fresh.deception().decisions().is_empty());
        assert!(fresh.deception().spawn_counts.is_empty());
        assert_eq!(fresh.deception().committed_profile, None);
        assert_eq!(m.take_deception().decisions().len(), 1);
        assert!(m.deception().decisions().is_empty());
    }

    /// Writes over preset keys and files: a value change, a subtree delete,
    /// an append, a rename away, and a new file.
    struct Writer;
    impl Program for Writer {
        fn image_name(&self) -> &str {
            "writer.exe"
        }
        fn run(&self, ctx: &mut ProcessCtx<'_>) {
            ctx.call(Api::RegSetValueEx, args![r"HKLM\SOFTWARE\Preset", "v", "changed"]);
            ctx.call(Api::RegDeleteKey, args![r"HKLM\SOFTWARE\Preset\Child"]);
            ctx.call(Api::WriteFile, args![r"C:\preset.txt", 16u64]);
            ctx.call(Api::MoveFile, args![r"C:\preset.txt", r"C:\preset.txt.locked"]);
            ctx.call(Api::WriteFile, args![r"C:\new.txt", 8u64]);
        }
    }

    /// What the registry and filesystem answer, for before/after checks.
    fn store_view(sys: &System) -> (Vec<String>, Option<String>, Vec<(String, u64)>) {
        let keys = sys.registry.key_paths().map(str::to_owned).collect();
        let value = sys.registry.value(r"HKLM\SOFTWARE\Preset", "v").and_then(|v| v.as_sz());
        let files = sys.fs.iter().map(|f| (f.path.clone(), f.size)).collect();
        (keys, value.map(str::to_owned), files)
    }

    #[test]
    fn snapshot_runs_write_into_their_own_delta() {
        let mut preset = crate::env::bare_metal_sandbox();
        let sys = preset.system_mut();
        sys.registry.set_value(r"HKLM\SOFTWARE\Preset", "v", RegValue::Sz("orig".into()));
        sys.registry.create_key(r"HKLM\SOFTWARE\Preset\Child\Leaf");
        sys.fs.create(r"C:\preset.txt", 4, "t");
        let snap = MachineSnapshot::capture(&preset);
        drop(preset);
        let before = store_view(&snap.template.sys);
        let mut run = snap.instantiate();
        run.register_program(Arc::new(Writer));
        run.run_sample("writer.exe").unwrap();
        let (template, after) = (&snap.template.sys, run.system());
        assert!(after.registry.shares_base(&template.registry));
        assert!(after.fs.shares_base(&template.fs));
        // the run sees its own writes ...
        let (keys, value, files) = store_view(after);
        assert_eq!(value.as_deref(), Some("changed"));
        assert_eq!(keys.len(), before.0.len() - 2);
        assert!(!after.registry.key_exists(r"HKLM\SOFTWARE\Preset\Child\Leaf"));
        assert!(files.contains(&(r"C:\preset.txt.locked".to_owned(), 20)));
        assert!(files.contains(&(r"C:\new.txt".to_owned(), 8)));
        assert!(!after.fs.exists(r"C:\preset.txt"));
        // ... and the template answers exactly as before the run
        assert_eq!(store_view(template), before);
        assert_eq!(before.1.as_deref(), Some("orig"));
    }

    /// Whether every process record and network table of `m`, and its DLL
    /// registry, is the template's own allocation.
    fn shares_everything(m: &Machine, template: &Machine) -> bool {
        m.procs.len() == template.procs.len()
            && m.procs.iter().all(|(pid, p)| Arc::ptr_eq(p, &template.procs[pid]))
            && m.sys.network.shared_tables(&template.sys.network) == [true; 4]
            && Arc::ptr_eq(&m.sys.dll_registry, &template.sys.dll_registry)
    }

    #[test]
    fn instantiate_shares_every_process_and_network_table() {
        for preset in [
            crate::env::bare_metal_sandbox(),
            crate::env::vm_sandbox(),
            crate::env::end_user_machine(),
        ] {
            let snap = MachineSnapshot::capture(&preset);
            assert!(shares_everything(&snap.instantiate(), &snap.template));
        }
    }

    #[test]
    fn a_run_copies_only_the_processes_it_writes() {
        let snap = MachineSnapshot::capture(&crate::env::end_user_machine());
        let (mut run, sibling) = (snap.instantiate(), snap.instantiate());
        let explorer = run.explorer_pid();
        // reads, and writes that find nothing to change, copy nothing
        run.call_api(4, Api::ResumeThread, args![u64::from(explorer)]);
        run.call_api(explorer, Api::LoadLibrary, args!["KERNEL32.dll"]);
        run.call_api(explorer, Api::EnumProcesses, Args::none());
        assert!(shares_everything(&run, &snap.template));
        // the run hooks one API in explorer.exe, then kills it
        run.install_hook(
            explorer,
            Api::IsDebuggerPresent,
            Arc::new(|c: &mut ApiCall<'_>| c.call_original()),
        );
        run.call_api(4, Api::TerminateProcess, args![u64::from(explorer)]);
        let copied: Vec<Pid> = run
            .procs
            .iter()
            .filter(|(pid, p)| !Arc::ptr_eq(p, &snap.template.procs[pid]))
            .map(|(pid, _)| *pid)
            .collect();
        assert_eq!(copied, [explorer]);
        assert_eq!(run.process(explorer).unwrap().state, ProcState::Terminated);
        // the template and a sibling still see it running and unhooked
        for m in [&snap.template, &sibling] {
            let p = m.process(explorer).unwrap();
            assert_eq!(p.state, ProcState::Running);
            assert_eq!(p.hooked_api_count(), 0);
            assert_eq!(p.api_prologue(Api::IsDebuggerPresent), crate::api::CLEAN_PROLOGUE);
        }
        assert!(shares_everything(&sibling, &snap.template));
        // a first resolution copies the DNS cache and no other table
        let v = run.call_api(4, Api::DnsQuery, args!["www.microsoft.com"]);
        assert_eq!(v.as_str(), Some("93.184.216.34"));
        let network = run.sys.network.shared_tables(&snap.template.sys.network);
        assert_eq!(network, [true, true, false, true]);
    }

    #[test]
    fn glob_matches_prefix_and_suffix() {
        let mut m = machine();
        m.system_mut().fs.create(r"C:\a\x.sys", 1, "t");
        m.system_mut().fs.create(r"C:\a\y.txt", 1, "t");
        let pid = m.add_system_process("t.exe");
        let v = m.call_api(pid, Api::FindFirstFile, args![r"C:\a\*.sys"]);
        assert_eq!(v.as_list().unwrap().len(), 1);
    }

    #[test]
    fn find_first_file_matches_every_star_on_the_end_user_machine() {
        let mut m = crate::env::end_user_machine();
        let explorer = m.explorer_pid();
        let found = m.call_api(explorer, Api::FindFirstFile, args![r"C:\Users\*Documents*"]);
        let found: Vec<&str> = found.as_list().unwrap().iter().filter_map(Value::as_str).collect();
        let expected: Vec<&str> = m
            .system()
            .fs
            .iter()
            .map(|f| f.path.as_str())
            .filter(|p| {
                let p = p.to_ascii_lowercase();
                p.starts_with(r"c:\users\") && p.contains("documents")
            })
            .collect();
        assert!(!expected.is_empty(), "the preset seeds documents");
        assert_eq!(found, expected);
    }

    #[test]
    fn registry_strings_round_trip_through_values() {
        let sz = RegValue::Sz("03/14/14".to_owned());
        assert_eq!(reg_to_value(&sz), Value::from("03/14/14"));
        assert_eq!(value_to_reg(reg_to_value(&sz)), sz);
        let multi = RegValue::MultiSz(vec!["a".to_owned(), String::new(), "c d".to_owned()]);
        let v = reg_to_value(&multi);
        assert_eq!(
            v.as_list().unwrap().iter().filter_map(Value::as_str).collect::<Vec<_>>(),
            ["a", "", "c d"]
        );
        assert_eq!(value_to_reg(v), multi);
    }

    #[test]
    fn evt_next_shares_one_allocation_per_source() {
        let mut m = crate::env::end_user_machine();
        let pid = m.add_system_process("t.exe");
        let v = m.call_api(pid, Api::EvtNext, args![1_000_000u64]);
        let list = v.as_list().unwrap();
        assert_eq!(list.len(), 25_000);
        let allocations: std::collections::HashSet<*const u8> = list
            .iter()
            .map(|e| match e {
                Value::Str(s) => Arc::as_ptr(s).cast::<u8>(),
                other => panic!("EvtNext element {other:?} is not a string"),
            })
            .collect();
        assert_eq!(allocations.len(), 30);
    }
}
