"""Batch command-line front end.

Subcommands: ``simulate`` (full run to CSV + ledger), ``iv-curve`` (array
characteristic dump), ``mppt-compare`` (paired controller bench) and
``modes-check`` (switch-table self check). Exit codes are a stable contract:
0 success, 1 config/flag error, 2 I/O error, 3 invariant violation.
"""

import argparse
import contextlib
import errno
import itertools
import marshal
import os
import sys

from pvbatsim import engine, pv
from pvbatsim import mppt as mp
from pvbatsim.config import (build_sim_config, check_panel_temperatures, default_config,
                             load_config_file)
from pvbatsim.errors import ConfigError, InvariantViolation, PvbatsimError
from pvbatsim.profiles import T_MAX_C, cursor
from pvbatsim.supervisor import SWITCH_TABLE

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_INVARIANT = 3

#: Environment variable consulted when --config is not given.
CONFIG_ENV_VAR = "PVBATSIM_CONFIG"

#: Largest ``iv-curve --g`` [W/m2]: 1,000 suns. The diode solve stalls from
#: about 2e7 W/m2; up to this bound it converges from -60 to 200 degC.
IV_G_MAX = 1e6


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the CLI contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _load_config(path, mppt_override=None):
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    data = load_config_file(path) if path else default_config()
    return build_sim_config(data, mppt_override=mppt_override)


@contextlib.contextmanager
def _replaced_when_done(*outs):
    """Yield one text file per output path; they replace the outputs only if the block ends.

    Each file is ``<target>.part`` beside the output's resolved target, so an
    output that is a symlink stays one and its target gets the new bytes. A
    directory is refused before the block runs, and a block that fails part
    way leaves every output as it was and no ``.part`` behind.
    """
    targets = [os.path.realpath(out) for out in outs]
    for out, target in zip(outs, targets):
        if os.path.isdir(target):
            raise IsADirectoryError(errno.EISDIR, "cannot write output to a directory", out)
    parts = [target + ".part" for target in targets]
    try:
        with contextlib.ExitStack() as stack:
            yield [stack.enter_context(open(part, "w", encoding="utf-8", newline="\n"))
                   for part in parts]
        for part, target in zip(parts, targets):
            os.replace(part, target)
    finally:
        # a finished block has already renamed them
        for part in parts:
            with contextlib.suppress(OSError):
                os.remove(part)


#: Rows per pipe frame to the CSV writer: the parent holds one frame at a time.
_FRAME_ROWS = 512


def _frames(pipe):
    """Yield the body of each length-prefixed frame read from ``pipe`` until its end."""
    while head := pipe.read(4):
        yield pipe.read(int.from_bytes(head, "little"))


def _write_csv_in_child(rows, controller, fh):
    """:func:`engine.write_records_csv` in a forked child, fed ``rows`` in marshal frames.

    The child leaves only through ``os._exit`` and is reaped before this
    returns or raises; a failed child is an ``OSError``. Without ``os.fork``
    the rows are written in this process.
    """
    if not hasattr(os, "fork"):
        engine.write_records_csv(rows, controller, fh)
        return
    fh.flush()  # the child shares the file offset
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(write_fd)
            with open(read_fd, "rb") as pipe:
                frames = map(marshal.loads, _frames(pipe))
                engine.write_records_csv(itertools.chain.from_iterable(frames), controller, fh)
            fh.flush()
            status = 0
        except Exception as exc:
            print(f"i/o error: CSV writer: {exc}", file=sys.stderr, flush=True)
        finally:
            os._exit(status)
    os.close(read_fd)
    try:
        with open(write_fd, "wb") as pipe:
            for batch in iter(lambda: list(itertools.islice(rows, _FRAME_ROWS)), []):
                frame = marshal.dumps(batch)
                pipe.write(len(frame).to_bytes(4, "little") + frame)
    except BrokenPipeError:
        pass  # the child stopped reading; its status says why
    finally:
        _, status = os.waitpid(pid, 0)
    if status:
        raise OSError(f"CSV writer exited with status {os.waitstatus_to_exitcode(status)}")


def _cmd_simulate(args):
    config = _load_config(args.config, mppt_override=args.mppt)
    ledger = engine.EnergyLedger()
    with _replaced_when_done(args.out, args.out + ".ledger") as (rows, totals):
        _write_csv_in_child(engine.steps(config, ledger), config.mppt_kind, rows)
        totals.write(engine.ledger_to_text(ledger))
    closed = ledger.closes()
    print(
        f"simulate: {config.n_steps} steps, controller={config.mppt_kind}, "
        f"e_pv={ledger.e_pv:.2f} Wh, e_load_served={ledger.e_load_served:.2f} Wh, "
        f"ledger closure={ledger.relative_residual():.3e} "
        f"({'ok' if closed else 'FAILED'})"
    )
    if not closed:
        print(
            f"simulate: ledger closure {ledger.relative_residual():.3e} exceeds "
            f"{engine.BALANCE_TOL:.1e}",
            file=sys.stderr,
        )
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_iv_curve(args):
    if not 0 <= args.g <= IV_G_MAX:
        print(f"iv-curve: --g must be a number in [0, {IV_G_MAX:g}] W/m2", file=sys.stderr)
        return EXIT_CONFIG
    if not -273.15 < args.t <= T_MAX_C:
        print(f"iv-curve: --t must be a temperature in (-273.15, {T_MAX_C:g}] degC",
              file=sys.stderr)
        return EXIT_CONFIG
    if args.points < 2:
        print("iv-curve: --points must be >= 2", file=sys.stderr)
        return EXIT_CONFIG
    config = _load_config(args.config)
    check_panel_temperatures(config.panel, (args.t,), "which iv-curve --t sets")
    t_j = args.t + 273.15
    with _replaced_when_done(args.out) as (fh,):
        points = pv.iv_sweep(args.g, t_j, args.points, config.panel)
        v_mpp, p_mpp = pv.mpp_oracle(args.g, t_j, config.panel)
        fh.write("v,i,p\n")
        for v, i, p in points:
            fh.write(f"{v!r},{i!r},{p!r}\n")
        fh.write(f"mpp,{v_mpp!r},{p_mpp!r}\n")
    print(f"iv-curve: {args.points} points, v_mpp={v_mpp:.4f} V, p_mpp={p_mpp:.4f} W")
    return EXIT_OK


def _plateaus(config, n_steps):
    """Yield ``(start, conditions)`` for each run of steps whose ``(g, t_c)`` equal its first's.

    ``==`` puts ``g = -0.0`` in a run of ``0.0``; each step keeps its own sample.
    """
    g_at = cursor(config.irradiance)
    t_c_at = cursor(config.temperature)
    start, conditions = 0, []
    for k in range(n_steps):
        t = k * config.t_mppt
        now = (g_at(t), t_c_at(t))
        if conditions and now != conditions[0]:
            yield start, conditions
            start, conditions = k, []
        conditions.append(now)
    yield start, conditions


def _compare_plateaus(config, n_steps, fh):
    """Run both controllers plateau by plateau, each on one carried state.

    Writes each plateau's rows and prints its ``segment`` line as it closes.
    Returns the ripples on the last plateau, None where it had no PV power.
    """
    states = {kind: mp.MpptState(d=config.d0, delta_d=config.delta_d, d_max=config.d_max)
              for kind in ("po", "flc")}
    fh.write("t_s,g_wm2,t_c,d_po,v_po,p_po,d_flc,v_flc,p_flc\n")
    for start, conditions in _plateaus(config, n_steps):
        g, t_c = conditions[0]
        runs = {kind: engine.run_tracking(kind, config.panel, g, t_c, len(conditions),
                                          config.v_bus_nominal, state, config.fuzzy, config.eta)
                for kind, state in states.items()}
        rows = zip(conditions, runs["po"], runs["flc"])
        for k, ((g_k, t_k), (d_po, v_po, p_po), (d_f, v_f, p_f)) in enumerate(rows, start):
            fh.write(f"{k * config.t_mppt!r},{g_k!r},{t_k!r},{d_po!r},{v_po!r},{p_po!r},"
                     f"{d_f!r},{v_f!r},{p_f!r}\n")
        _, p_mpp = pv.mpp_oracle(g, t_c + 273.15, config.panel)
        p_mpp *= config.eta
        end = (start + len(conditions) - 1) * config.t_mppt
        line = f"segment t=[{start * config.t_mppt:.1f},{end:.1f}]s g={g:g} W/m2:"
        last_ripple = {}
        for kind, samples in runs.items():
            mean, ripple = engine.steady_stats(samples)
            if p_mpp > 0.0:
                line += f"  {kind}: eff={mean / p_mpp:.4f} ripple={ripple:.4f} W"
            else:
                line += f"  {kind}: eff=n/a ripple=n/a"
            last_ripple[kind] = ripple if p_mpp > 0.0 else None
        print(line)
    return last_ripple


def _cmd_mppt_compare(args):
    config = _load_config(args.config)
    n_steps = max(2, engine.step_count(config.t_end, config.t_mppt))
    with _replaced_when_done(args.out) as (fh,):
        last_ripple = _compare_plateaus(config, n_steps, fh)

    if last_ripple["po"] is None:
        print("mppt-compare: no PV power in final segment, comparison n/a")
        return EXIT_OK
    if last_ripple["flc"] < last_ripple["po"]:
        print(
            f"mppt-compare: flc ripple {last_ripple['flc']:.4f} W < "
            f"po ripple {last_ripple['po']:.4f} W"
        )
        return EXIT_OK
    print(
        f"mppt-compare: flc ripple {last_ripple['flc']:.4f} W is not below "
        f"po ripple {last_ripple['po']:.4f} W",
        file=sys.stderr,
    )
    return EXIT_INVARIANT


_MODE_TABLE_LINES = [
    "Mode1 On On Off",
    "Mode2 Off On On",
    "Mode3 Off Off On",
    "Mode4 Off On Off",
    "Mode5 Off Off Off",
]


def _cmd_modes_check(_args):
    lines = [f"Mode{mode} " + " ".join("On" if k else "Off" for k in switches)
             for mode, switches in SWITCH_TABLE.items()]
    for line in lines:
        print(line)
    if lines != _MODE_TABLE_LINES:
        print("modes-check: switch table does not match the expected table", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="pvbatsim", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_sim = subs.add_parser("simulate", help="run a simulation to CSV + ledger")
    p_sim.add_argument("--config", help=f"YAML config path (default: ${CONFIG_ENV_VAR} or built-in)")
    p_sim.add_argument("--out", required=True, help="output records CSV path")
    p_sim.add_argument("--mppt", choices=("po", "flc"), help="override the configured controller")
    p_sim.set_defaults(func=_cmd_simulate)

    p_iv = subs.add_parser("iv-curve", help="dump an I-V/P-V sweep with the MPP trailer")
    p_iv.add_argument("--g", type=float, default=1000.0, help="irradiance W/m2")
    p_iv.add_argument("--t", type=float, default=25.0, help="cell temperature degC")
    p_iv.add_argument("--points", type=int, default=200)
    p_iv.add_argument("--out", required=True)
    p_iv.add_argument("--config", help="optional config for panel parameters")
    p_iv.set_defaults(func=_cmd_iv_curve)

    p_cmp = subs.add_parser("mppt-compare", help="run both controllers on identical conditions")
    p_cmp.add_argument("--config", help="YAML config path")
    p_cmp.add_argument("--out", required=True)
    p_cmp.set_defaults(func=_cmd_mppt_compare)

    p_modes = subs.add_parser("modes-check", help="print and verify the mode/switch table")
    p_modes.set_defaults(func=_cmd_modes_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except PvbatsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
