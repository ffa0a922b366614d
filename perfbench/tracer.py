"""Outside-in tracer for the cavityq layers.

The tracer wraps public functions of the package from outside: it edits
no file of the package. ``protocols``, ``channels`` and ``experiments``
bind their collaborators with ``from ... import``, so each function is
replaced in every ``cavityq.*`` module attribute that holds the original
object, and methods are replaced on their class. ``uninstall`` puts every
original back.

Spans (name, start, end, parent, op id) stay in memory; the benchmark
writes them out when the run ends. A span's self time is its duration
minus the durations of its direct children.
"""

import hashlib
import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute or Class.method)
TARGETS = (
    ("hilbert.apply", "hilbert", "apply"),
    ("hilbert.project_subspaces", "hilbert", "project_subspaces"),
    ("hilbert.fidelity", "hilbert", "fidelity"),
    ("hilbert.make_state", "hilbert", "make_state"),
    ("hilbert.superpose", "hilbert", "superpose"),
    # StateVector itself stays: isinstance checks use the class
    ("hilbert.StateVector", "hilbert", "StateVector.__post_init__"),
    ("dynamics.single_atom_op", "dynamics", "single_atom_op"),
    ("dynamics.optical_pump_r_to_1", "dynamics", "optical_pump_r_to_1"),
    ("dynamics.propagator", "dynamics", "propagator"),
    ("dynamics.evolve", "dynamics", "evolve"),
    ("dynamics.raman_hamiltonian", "dynamics", "raman_hamiltonian"),
    ("dynamics.bath_hamiltonian", "dynamics", "bath_hamiltonian"),
    ("dynamics.thermal_configurations", "dynamics", "thermal_configurations"),
    ("channels.make_local_channel", "channels", "make_local_channel"),
    ("channels.make_transmission_channel", "channels", "make_transmission_channel"),
    ("channels.local_channel_apply", "channels", "local_channel_apply"),
    ("channels.transmission_apply", "channels", "transmission_apply"),
    ("channels.check_stationarity", "channels", "check_stationarity"),
    ("protocols.measure_via", "protocols", "measure_via"),
    ("protocols.joint_measure_00", "protocols", "joint_measure_00"),
    ("protocols.run_joint_measure", "protocols", "run_joint_measure"),
    ("protocols.run_epr", "protocols", "run_epr"),
    ("protocols.run_gate", "protocols", "run_gate"),
    ("protocols.EprCircuit", "protocols", "EprCircuit.__init__"),
    ("protocols.GateCircuit", "protocols", "GateCircuit.__init__"),
    ("protocols.SampleChooser.choose", "protocols", "SampleChooser.choose"),
    ("protocols.ScriptedChooser.choose", "protocols", "ScriptedChooser.choose"),
    ("experiments.run_trials", "experiments", "run_trials"),
    ("experiments.run_sweep", "experiments", "run_sweep"),
    ("experiments.enumerate_branches", "experiments", "enumerate_branches"),
    ("experiments.estimate_process_fidelity", "experiments", "estimate_process_fidelity"),
    ("cli.main", "cli", "main"),
    ("cli.load_config", "cli", "load_config"),
    ("cli.write_run_outputs", "cli", "write_run_outputs"),
)

# marks every wrapper, so a scan can prove none is left installed
MARK = "__cavityq_bench_span__"

# counts for one analytic joint-measurement trial, measured at the seed
SELFTEST_EXPECTED = {
    "dynamics.single_atom_op": 2,
    "channels.local_channel_apply": 2,
    "protocols.measure_via": 1,
    "hilbert.make_state": 4,
    "protocols.run_joint_measure": 1,
    "protocols.SampleChooser.choose": 1,
}


def _package_modules():
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "cavityq" or name.startswith("cavityq."))
    ]


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Collects spans and layer counters while installed."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.spans = []  # [name id, start ns, end ns, parent index, op id]
        self.stack = []
        self.op = -1
        self.patches = []  # (owner, attribute, original)
        self.leaves = 0
        self.replayed = 0
        self.state_bytes = 0
        self.propagator_keys = set()
        self.propagator_repeats = 0
        self.channel_keys = set()
        self.channel_repeats = 0

    # -- hooks that record counters at the layer boundary ------------------

    def _before(self, name, args, kwargs):
        if name == "hilbert.apply":
            state = _arg(args, kwargs, 1, "state")
            self.state_bytes += 2 * state.amplitudes.nbytes
        elif name == "protocols.ScriptedChooser.choose":
            chooser = args[0]
            self.replayed += len(chooser.trace) < len(chooser.script)
        elif name == "dynamics.propagator":
            h = _arg(args, kwargs, 1, "hamiltonian")
            key = (
                h.support,
                hashlib.blake2b(h.dense().tobytes(), digest_size=16).digest(),
                float(_arg(args, kwargs, 2, "duration")),
            )
            self.propagator_repeats += key in self.propagator_keys
            self.propagator_keys.add(key)
        elif name == "channels.make_local_channel":
            key = repr((args, sorted(kwargs.items())))
            self.channel_repeats += key in self.channel_keys
            self.channel_keys.add(key)

    def _after(self, name, result):
        if name == "experiments.enumerate_branches":
            self.leaves += len(result)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name_id, original):
        name = self.names[name_id]
        spans = self.spans
        stack = self.stack
        hooked = name in (
            "hilbert.apply",
            "protocols.ScriptedChooser.choose",
            "dynamics.propagator",
            "channels.make_local_channel",
            "experiments.enumerate_branches",
        )
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if hooked:
                self._before(name, args, kwargs)
            span = [name_id, 0, 0, stack[-1] if stack else -1, self.op]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hooked:
                self._after(name, result)
            return result

        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__qualname__ = getattr(original, "__qualname__", name)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        setattr(wrapper, MARK, name)
        return wrapper

    def install(self):
        if self.patches:
            raise RuntimeError("tracer already installed")
        package = {m.__name__: m for m in _package_modules()}
        try:
            for name_id, (_, module, attr) in enumerate(TARGETS):
                home = package[f"cavityq.{module}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[method]
                    self.patches.append((cls, method, original))
                    setattr(cls, method, self._wrap(name_id, original))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(name_id, original)
                for mod in package.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self.patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        for owner, key, original in reversed(self.patches):
            setattr(owner, key, original)
        self.patches = []

    # -- results ------------------------------------------------------------

    def aggregate(self):
        """Per name: calls, total ms and self ms over all spans."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        calls = defaultdict(int)
        total = defaultdict(int)
        own = defaultdict(int)
        for k, span in enumerate(self.spans):
            name = self.names[span[0]]
            duration = span[2] - span[1]
            calls[name] += 1
            total[name] += duration
            own[name] += duration - child_ns[k]
        return {
            name: {
                "calls": calls[name],
                "total_ms": total[name] / 1e6,
                "self_ms": own[name] / 1e6,
            }
            for name in self.names
        }


def surviving_wrappers():
    """Attribute paths in the package that still hold a tracer wrapper."""
    found = []
    for mod in _package_modules():
        for key, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if hasattr(member, MARK):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return found


def selftest():
    """Trace one analytic joint-measurement trial and compare exact counts.

    Returns a list of problems; empty means the counts matched and no
    wrapper survived the uninstall.
    """
    from cavityq.channels import NoiseConfig
    from cavityq.experiments import ExperimentConfig, run_trials

    cfg = ExperimentConfig(
        protocol="joint_measure", noise=NoiseConfig(eta_local=0.05), trials=1, seed=1
    )
    tracer = Tracer()
    tracer.install()
    try:
        stats, _ = run_trials(cfg)
    finally:
        tracer.uninstall()
    problems = []
    if stats.success_probability != 1.0:
        problems.append("self-test trial did not herald success")
    counts = tracer.aggregate()
    for name, want in SELFTEST_EXPECTED.items():
        got = counts[name]["calls"]
        if got != want:
            problems.append(f"{name}: {got} calls, expected {want}")
    problems.extend(f"wrapper survived: {p}" for p in surviving_wrappers())
    return problems
