"""Child-process side of the benchmark; run with ``PYTHONPATH=<repo>/src``.

    python3 perfbench/probe.py setup CONFIG|-
        Import the CLI and build a SimConfig from CONFIG (``-`` for the
        built-in default), then exit. The parent times the whole process, so
        this is interpreter start to a built SimConfig. Prints the selected
        kernel backend and where pvbatsim was imported from, as JSON.

    python3 perfbench/probe.py trace OUT_JSON PVBATSIM_ARGS...
        Run ``pvbatsim PVBATSIM_ARGS...`` in this process with the public
        functions of each layer wrapped, and write per-layer counters and
        self times to OUT_JSON. The exit status is the CLI's.

    python3 perfbench/probe.py kernels
        Time the kernels of each backend that imports, on fixed arguments,
        and print microseconds per call as JSON.

The wrappers are installed by rebinding module attributes from outside;
nothing under ``src/`` is changed. A module that did ``from x import f``
holds its own reference to ``f``, so every module attribute that is the
wrapped function gets rebound.
"""

import importlib
import json
import statistics
import sys
import time

LAYER_MODULES = (
    "cli", "config", "profiles", "mppt", "converter", "pv", "_kernels",
    "supervisor", "battery", "engine",
)

#: (span name, module, function) for every wrapped function. po_step and
#: flc_step share one span: they are the same layer doing the same job.
TRACED = (
    ("cli.main", "cli", "main"),
    ("config.build", "config", "build_sim_config"),
    ("profiles.load_csv", "profiles", "load_csv"),
    ("profiles.sample", "profiles", "sample"),
    ("engine.run", "engine", "run"),
    ("engine.step", "engine", "step"),
    ("engine.run_tracking", "engine", "run_tracking"),
    ("engine.records_to_csv", "engine", "records_to_csv"),
    ("mppt.step", "mppt", "po_step"),
    ("mppt.step", "mppt", "flc_step"),
    ("converter.pv_port_voltage", "converter", "pv_port_voltage"),
    ("pv.operating_point", "pv", "operating_point"),
    ("pv.mpp_oracle", "pv", "mpp_oracle"),
    ("kernels.diode", "_kernels", "solve_diode_current"),
    ("kernels.battery", "_kernels", "battery_current_for_power"),
    ("supervisor.select_mode", "supervisor", "select_mode"),
    ("supervisor.route_power", "supervisor", "route_power"),
    ("battery.current_for_power", "battery", "current_for_power"),
    ("battery.soc_update", "battery", "soc_update"),
    ("battery.terminal_voltage", "battery", "terminal_voltage"),
)

#: Spans whose result is a kernel's ``(value, residual, iterations)`` tuple.
SOLVER_SPANS = ("kernels.diode", "kernels.battery")


class Span:
    """Aggregated spans of one name: count, total and self time, callers."""

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.parents = {}
        self.iters_sum = 0
        self.iters_max = 0
        self.residual_max = 0.0
        self.out_chars = 0


class Tracer:
    """Wraps functions so each call records a span on an in-memory stack.

    Spans are aggregated per name as they close rather than kept one by one:
    a default day makes over a million calls. A span's self time is its
    duration minus the durations of the wrapped calls it made.
    """

    def __init__(self):
        self.spans = {}
        self._stack = []

    def wrap(self, name, fn):
        span = self.spans.setdefault(name, Span())
        stack = self._stack
        clock = time.perf_counter
        solver = name in SOLVER_SPANS
        text = name == "engine.records_to_csv"

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - frame[1]
                span.parents[parent] = span.parents.get(parent, 0) + 1
                if stack:
                    stack[-1][1] += elapsed
            if solver:
                residual, iters = abs(result[1]), result[2]
                span.iters_sum += iters
                if iters > span.iters_max:
                    span.iters_max = iters
                if residual > span.residual_max:
                    span.residual_max = residual
            elif text:
                span.out_chars += len(result)
            return result

        return wrapper

    def install(self):
        modules = [importlib.import_module(f"pvbatsim.{m}") for m in LAYER_MODULES]
        for name, module, attr in TRACED:
            original = getattr(importlib.import_module(f"pvbatsim.{module}"), attr)
            wrapped = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def report(self):
        return {
            name: {
                "calls": s.calls, "total_s": s.total_s, "self_s": s.self_s,
                "parents": s.parents, "iters_sum": s.iters_sum,
                "iters_max": s.iters_max, "residual_max": s.residual_max,
                "out_chars": s.out_chars,
            }
            for name, s in self.spans.items()
        }


def cmd_setup(config):
    import pvbatsim
    from pvbatsim import cli  # noqa: F401  (the imports a CLI run pays for)
    from pvbatsim.config import build_sim_config, default_config, load_config_file

    build_sim_config(default_config() if config == "-" else load_config_file(config))
    print(json.dumps({"backend": pvbatsim.backend_name(), "module": pvbatsim.__file__}))
    return 0


def cmd_trace(out_json, argv):
    tracer = Tracer()
    tracer.install()
    from pvbatsim import cli

    code = cli.main(argv)
    with open(out_json, "w", encoding="utf-8") as fh:
        json.dump(tracer.report(), fh)
    return code


#: Fixed kernel arguments: the generic panel at 17.7 V and 25 C (thermal
#: voltage 1.2024 V), and a 250 W discharge of the default bank at SOC 0.6.
KERNEL_CALLS = {
    "diode": ("solve_diode_current", (17.7, 4.95, 7e-8, 0.16, 200.0, 1.2024)),
    "battery": ("battery_current_for_power", (250.0, 0.6, 100.0, 0.0, 24, 1, 1.3)),
    "voc": ("open_circuit_voltage", (4.95, 7e-8, 200.0, 1.2024)),
}


def _us_per_call(fn, args, calls=2000, repeats=7):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times) * 1e6


def cmd_kernels():
    result = {}
    for backend in ("pure", "core"):
        try:
            module = importlib.import_module(f"pvbatsim._kernels._{backend}")
        except ImportError:
            continue
        for kernel, (attr, args) in KERNEL_CALLS.items():
            result[f"kernels.{backend}.{kernel}_us"] = _us_per_call(getattr(module, attr), args)
    print(json.dumps(result))
    return 0


def main(argv):
    if argv[:1] == ["setup"] and len(argv) == 2:
        return cmd_setup(argv[1])
    if argv[:1] == ["trace"] and len(argv) >= 3:
        return cmd_trace(argv[1], argv[2:])
    if argv == ["kernels"]:
        return cmd_kernels()
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
