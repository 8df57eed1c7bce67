"""Command-line front end for reproducible shadowing/stability experiments.

Subcommands: constants, orbit, shadow, verify, stability.  Every run
writes a manifest echoing all resolved parameters (including the derived
constants L0, delta, alpha, r1, r2, k), so any result can be reproduced
from the manifest alone; outputs are line-oriented text or strict JSON
(non-finite floats as null) with 17-significant-digit decimals and no
timestamps, so identical configs give byte-identical files.

Exit codes: 0 on PASS, 1 on contract FAIL, 2 on input errors, 3 on
parameter-validity errors (e.g. an epsilon too large for the model's
validity radii).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import models, oracles, orbits, shadowing, stability
from .geometry import torus_distance

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_PARAMETER = 3


def _write_json(path: Path, obj) -> None:
    """Strict JSON: a non-finite float (sup d(pi, id) of an all-failed grid) is null."""
    with open(path, "w") as fh:
        json.dump(_finite(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _finite(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return obj


def _report_fields(report) -> dict:
    """A report dataclass's fields, the schema of its JSON file, less the
    `epsilon` argument, which the manifest holds."""
    return {key: value for key, value in dataclasses.asdict(report).items() if key != "epsilon"}


def _derived(sys_model, params: shadowing.ShadowingParams) -> dict:
    """Every resolved parameter plus the model's constants and the margins."""
    names = ("L0", "delta0", "delta1", "lip_f", "lip_f_inv")
    return {**dataclasses.asdict(params), **{name: getattr(sys_model, name) for name in names},
            "lambda": sys_model.lam_eff, "mu": 1.0 / sys_model.lam_eff,
            "margins": params.margins(sys_model)}


def _write_manifest(out: Path, args, sys_model, params=None, outputs=(), **resolved) -> None:
    """manifest.json: the parsed arguments, with `out` as the directory
    written and `resolved` replacing the values the command worked out
    (orbit's drawn x0), plus the canonical argv that replays them."""
    parameters = {key: value for key, value in vars(args).items() if key != "command"}
    parameters.update(out=str(out), **resolved)
    manifest = {
        "command": args.command,
        "argv": _canonical_argv(args.command, parameters),
        "parameters": parameters,
        "model": models.model_to_dict(sys_model),
        "outputs": sorted(outputs),
    }
    if params is not None:
        manifest["derived"] = _derived(sys_model, params)
    _write_json(out / "manifest.json", manifest)


def _canonical_argv(command: str, args_dict: dict) -> list:
    argv = [command]
    for key, val in sorted(args_dict.items()):
        flag = "--" + key.replace("_", "-")
        if val is None:
            continue
        if isinstance(val, (list, tuple)):
            argv.append(flag)
            argv.extend(str(v) for v in val)
        else:
            argv.extend([flag, str(val)])
    return argv


def cmd_constants(args, sys_model, out: Path) -> int:
    params = shadowing.delta_for_epsilon(sys_model, args.epsilon)
    payload = _derived(sys_model, params)
    for name in ("lambda", "mu", "L0", "delta0", "k", "alpha", "r1", "r2", "delta"):
        print(f"{name} = {payload[name]:.17g}")
    for name, m in payload["margins"].items():
        print(f"margin[{name}] = {m:.6g}")
    _write_json(out / "constants.json", payload)
    _write_manifest(out, args, sys_model, params, outputs=["constants.json"])
    passed = all(m >= 2.0 for m in payload["margins"].values())   # a NaN margin fails
    print(f"{'PASS' if passed else 'FAIL'} all margins >= 2: {passed}")
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_orbit(args, sys_model, out: Path) -> int:
    if args.x0 is not None:
        x0 = np.array(args.x0)
    else:
        x0 = np.random.default_rng(args.seed ^ 0x5EED).random(3)
    orbit = orbits.generate_noisy(sys_model, x0, args.window, args.delta, args.seed)
    fwd, bwd = orbits.validate(sys_model, orbit)
    orbits.write_orbit(orbit, out / "orbit.txt", model_name=args.model)
    _write_manifest(out, args, sys_model, outputs=["orbit.txt"], x0=[float(v) for v in x0])
    print(f"PASS orbit window=[{orbit.n_min},{orbit.n_max}] "
          f"forward_defect={fwd:.6e} backward_defect={bwd:.6e}")
    return EXIT_PASS


def cmd_shadow(args, sys_model, out: Path) -> int:
    orbit = orbits.read_orbit(args.orbit)
    trace = shadowing.quasi_shadow(sys_model, orbit, args.epsilon)
    report = shadowing.verify(sys_model, orbit, trace, args.epsilon)
    shadowing.write_trace(trace, out / "trace.txt", model_name=args.model)
    _write_manifest(out, args, sys_model, trace.params, outputs=["trace.txt"])
    print(report.summary())
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_verify(args, sys_model, out: Path) -> int:
    orbit = orbits.read_orbit(args.orbit)
    trace = shadowing.read_trace(args.trace)
    if trace.model_name != args.model:
        raise ValueError(f"trace file {args.trace} is for model {trace.model_name!r}, "
                         f"not {args.model!r}")
    # a window mismatch is an input error (2), found before a parameter one (3)
    report = shadowing.verify(sys_model, orbit, trace, args.epsilon)
    params = shadowing.delta_for_epsilon(sys_model, args.epsilon)
    differ = [f"{name} = {value!r} (resolved {getattr(params, name)!r})"
              for name, value in dataclasses.asdict(trace.params).items()
              if value != getattr(params, name)]
    if differ:
        raise shadowing.ParameterError(
            f"trace file {args.trace} was built with parameters that --epsilon "
            f"{args.epsilon!r} does not resolve to: {', '.join(differ)}")
    rows = slice(trace.index(trace.interior[0]), trace.index(trace.interior[1]) + 1)
    if sys_model.is_linear:
        oracle = oracles.linear_model_shadow(sys_model, orbit, trace.k)
        gap = torus_distance(trace.y_star[rows], oracle[rows])
    else:
        oracle = oracles.cat_map_shadow(sys_model.A, orbit.points[:, :2])
        gap = torus_distance(trace.y_star[rows, :2], oracle[rows])
    report.oracle_gap = float(np.max(gap))
    _write_json(out / "verify.json", _report_fields(report))
    _write_manifest(out, args, sys_model, outputs=["verify.json"])
    print(report.summary())
    return EXIT_PASS if report.passed else EXIT_FAIL


def _load_perturbation(sys_model, args) -> orbits.PerturbedMap:
    if args.perturbation:
        with open(args.perturbation) as fh:
            data = json.load(fh)
        models._json_keys(data, ("modes", "amplitude_bound", "certification_grid"), "perturbation")
        try:
            modes = [models._json_mode(m, "perturbation mode", ("coord",)) for m in data["modes"]]
            bound = models._json_numbers(data["amplitude_bound"], "amplitude_bound")
            return orbits.PerturbedMap(sys_model, modes, bound,
                                       certification_grid=data.get("certification_grid", 128))
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"perturbation file {args.perturbation} is malformed: "
                             f"{type(exc).__name__}: {exc}") from exc
    if args.delta is None:
        raise ValueError("stability needs --perturbation <file> or --delta <amplitude>")
    amp = args.delta
    a = amp / math.sqrt(3.0)
    modes = [(0, 0, 1, 0, a, 0.0), (1, 0, 0, 1, a, 0.0), (2, 1, 0, 0, a, 0.0)]
    return orbits.PerturbedMap(sys_model, modes, amplitude_bound=1.1 * amp,
                               certification_grid=128)


def cmd_stability(args, sys_model, out: Path) -> int:
    g = _load_perturbation(sys_model, args)
    sc = stability.semiconjugacy(sys_model, g, tuple(args.grid), args.half_length,
                                 args.epsilon)
    identity = stability.check_identity(sys_model, sc, g)
    surj = stability.surjectivity_density(sc, args.epsilon)
    stability.write_semiconjugacy(sc, out / "semiconjugacy.txt",
                                  model_name=args.model,
                                  perturbation=args.perturbation or f"delta={args.delta}")
    capped = dataclasses.replace(identity, failing_nodes=identity.failing_nodes[:100])
    _write_json(out / "stability.json", {"identity": _report_fields(capped),
                                         "surjectivity": _report_fields(surj),
                                         "node_failures": sc.failures[:100]})
    _write_manifest(out, args, sys_model, sc.params,
                    outputs=["semiconjugacy.txt", "stability.json"])
    print(identity.summary())
    print(surj.summary())
    passed = identity.passed and surj.passed and not sc.failures
    print(f"{'PASS' if passed else 'FAIL'} stability grid={args.grid} "
          f"half_length={args.half_length} node_failures={len(sc.failures)}")
    return EXIT_PASS if passed else EXIT_FAIL


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusshadow",
        description="Quasi-shadowing and quasi-stability experiments on the 3-torus.")
    sub = parser.add_subparsers(dest="command", required=True)

    def _common(p):
        p.add_argument("--model", required=True,
                       help="model file (JSON) or builtin name: linear, skew")
        p.add_argument("--out", default="runs", help="output directory")

    p = sub.add_parser("constants", help="resolved construction constants and margins")
    _common(p)
    p.add_argument("--epsilon", type=float, required=True)

    p = sub.add_parser("orbit", help="generate a seeded noisy pseudo-orbit")
    _common(p)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--window", type=int, nargs=2, required=True, metavar=("A", "B"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--x0", type=float, nargs=3, default=None)

    p = sub.add_parser("shadow", help="quasi-shadow an orbit file")
    _common(p)
    p.add_argument("--orbit", required=True)
    p.add_argument("--epsilon", type=float, required=True)

    p = sub.add_parser("verify", help="re-verify a trace file against its orbit")
    _common(p)
    p.add_argument("--orbit", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--epsilon", type=float, required=True)

    p = sub.add_parser("stability", help="sampled semiconjugacy for a perturbed map")
    _common(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--grid", type=_positive_int, nargs=3, required=True,
                   metavar=("N1", "N2", "N3"))
    p.add_argument("--half-length", type=_positive_int, default=40, dest="half_length")
    field = p.add_mutually_exclusive_group()
    field.add_argument("--delta", type=float, default=None,
                       help="amplitude of the default perturbation field")
    field.add_argument("--perturbation", default=None, help="perturbation JSON file")

    return parser


_parser = functools.cache(build_parser)   # built on the first `main` call, not at import


def main(argv=None) -> int:
    """Run one subcommand; the one place an exception becomes an exit code.

    The parser is built once per process.  `--model` (a builtin name or a
    model file) and `--out` (created if missing) are resolved here, and the
    subcommand is looked up as this module's `cmd_<name>` on every call, so
    a function put in its place later (a tracer's wrapper) is the one that
    runs."""
    args = _parser().parse_args(argv)
    try:
        if args.model in ("linear", "skew"):
            sys_model = models.builtin_model(args.model)
        else:
            sys_model = models.load_model(args.model)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return globals()["cmd_" + args.command](args, sys_model, out)
    except models.ModelError as exc:
        print(f"ERROR model: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except shadowing.ParameterError as exc:
        print(f"ERROR parameters: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except (shadowing.ConstructionError, shadowing.InsufficientWindowError) as exc:
        print(f"ERROR construction: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (OSError, ValueError) as exc:
        print(f"ERROR input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        # an input that asks for more memory than there is (a huge certification_grid)
        print(f"ERROR input: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
