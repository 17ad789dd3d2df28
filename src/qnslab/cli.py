"""Command-line front end: load descriptors, run analyses, emit JSON/CSV reports.

Exit codes: 0 success/pass, 1 quantitative failure (a threshold was exceeded
or a certification check failed), 2 invalid input or construction error.
All randomness flows from --seed; each subcommand derives its own sub-seed by
stable hashing, so reruns with the same config are byte-identical up to the
``generated_at`` stamp.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import click
import numpy as np

from .counterexample import (
    ConstructionError,
    RestrictedProbeSpec,
    avoided_complement_set,
    build_domain,
    build_f1_counterexample,
    certify_f1,
    certify_failure,
    certify_restricted,
    default_sequences,
    export_domain_json,
    export_failure_csv,
    f1_sequences,
)
from .fields import field_from_json
from .geometry import Ball, Similarity, lens_constant
from .qns_engine import (
    BallProbeGrid,
    ScaleFunction,
    ball_constant_from_image_constant,
    estimate_K,
    f_admissibility,
    image_constant_from_ball_constant,
    phi_functional,
)
from .quadrature import QuadratureSpec, derive_seed, sample_in_ball
from .radius_sets import classify, radius_set_from_json
from .regions import MarkedSet, Rect, Region, region_from_json


def _write_report(out_dir: str | None, name: str, payload: dict) -> dict:
    payload = dict(payload)
    payload["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    if out_dir:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        with open(path / name, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return payload


def _parse_window(text: str | None):
    if text is None:
        return None
    lo, hi = (float(v) for v in text.split(","))
    return (lo, hi)


def _count(value, name: str) -> int:
    """A probe count from a problem file: an integer, an integral float such
    as ``9.0``, or a string that spells an integer."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return int(value)  # int("3.9") raises ValueError


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


BUILTIN_SETS = {
    "unit-ball": lambda: MarkedSet(Region((Ball((0.0, 0.0), 1.0),)), (0.0, 0.0)),
    "unit-square": lambda: MarkedSet(Region((Rect((0.0, 0.0), (1.0, 1.0)),)), (0.5, 0.5)),
    "two-ball": lambda: MarkedSet(
        Region((Ball((0.0, 0.0), 1.0), Ball((1.0, 0.0), 1.0))), (0.5, 0.0)
    ),
}


@click.group()
def main():
    """Mean-value inequality toolkit: radius sets, density constants, counterexamples."""


@main.command("analyze-set")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--window", default=None, help="override window as 'lo,hi'")
@click.option("--out", "out_dir", default=None, type=click.Path())
def cmd_analyze_set(config_path, window, out_dir):
    """Classify a radius set: favorability verdicts plus porosity data."""
    try:
        doc = _load_json(config_path)
        if window:
            doc["window"] = list(_parse_window(window))
        rs = radius_set_from_json(doc)
        result = classify(rs)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        click.echo(f"invalid radius set: {exc}", err=True)
        sys.exit(2)
    payload = _write_report(out_dir, "classification.json", result.to_json())
    click.echo(json.dumps(payload, indent=2, sort_keys=True))
    sys.exit(0)


@main.command("check-qns")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--max-K", "max_k", default=None, type=float, help="fail (exit 1) if the estimate exceeds this")
@click.option("--seed", default=0, type=int)
@click.option("--workers", default=1, type=click.IntRange(min=1))
@click.option("--samples", default=8192, type=click.IntRange(min=1000),
              help="sample cap of a probe mean with no closed form (at least 1000)")
@click.option("--out", "out_dir", default=None, type=click.Path())
def cmd_check_qns(config_path, max_k, seed, workers, samples, out_dir):
    """Estimate the ball-mean constant of a field over a region."""
    try:
        doc = _load_json(config_path)
        omega, _ = region_from_json(doc["region"])
        u = field_from_json(doc, domain=omega)
        probes = doc.get("probes", {})
        radius_set = None
        if "radius_set" in doc:
            radius_set = radius_set_from_json(doc["radius_set"])
        grid = BallProbeGrid(
            center_resolution=_count(probes.get("center_resolution", 9), "center_resolution"),
            radii_per_center=_count(probes.get("radii_per_center", 8), "radii_per_center"),
            radius_range=tuple(map(float, probes["radius_range"])) if "radius_range" in probes else None,
            radius_set=radius_set,
        )
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        click.echo(f"invalid problem description: {exc}", err=True)
        sys.exit(2)
    spec = QuadratureSpec(
        method="auto", target_rel_error=0.1, max_samples=samples,
        seed=derive_seed(seed, "check-qns"), workers=workers,
    )
    est = estimate_K(u, omega, grid, spec)
    payload = _write_report(out_dir, "k_estimate.json", est.to_json())
    click.echo(json.dumps(payload, indent=2, sort_keys=True))
    if est.vacuous and est.probes_skipped > 0 and est.probes_used == 0:
        click.echo("no admissible probes: containment failed wholesale", err=True)
        sys.exit(2)
    if max_k is not None and est.k_hat > max_k:
        click.echo(f"K estimate {est.k_hat:.6g} exceeds --max-K {max_k}", err=True)
        sys.exit(1)
    sys.exit(0)


@main.command("counterexample")
@click.option("--n0", default=3, type=int, help="chain opening constant (must exceed 2)")
@click.option("--m-count", "m_count", default=5, type=int, help="number of components")
@click.option("--variant", type=click.Choice(["gap-chain", "f1"]), default="gap-chain")
@click.option("--seed", default=0, type=int)
@click.option("--workers", default=1, type=click.IntRange(min=1))
@click.option("--out", "out_dir", default=".", type=click.Path())
def cmd_counterexample(n0, m_count, variant, seed, workers, out_dir):
    """Build the chain domain and certify both sides of its behavior."""
    spec = QuadratureSpec(
        method="auto", target_rel_error=1e-3, max_samples=400_000,
        seed=derive_seed(seed, "counterexample"), workers=workers,
    )
    try:
        if variant == "gap-chain":
            seq = default_sequences(n0, m_count)
            dom = build_domain(seq)
            failure = certify_failure(dom, spec)
            admissible = avoided_complement_set(dom)
            restricted = certify_restricted(
                dom, admissible,
                RestrictedProbeSpec(offsets=(0.0, 0.5, 0.9, 1.0), angles=6, radii_per_component=8),
                spec,
            )
            cert = {
                "failure_side": failure.to_json(),
                "restricted_side": restricted.to_json(),
            }
            passed = failure.passed and restricted.passed
        else:
            seq = f1_sequences(n0, m_count)
            d = BUILTIN_SETS["unit-ball"]()
            dom, _, rule = build_f1_counterexample(seq, d)
            report = certify_f1(dom, rule, d, spec)
            admissibility = f_admissibility(
                ScaleFunction(rule, (seq.a[-1] / 4.0, 1.0), grid=4000),
                t_grid=(0.25, 0.5, 1.0),
                eps_threshold=1.0,
            )
            cert = {"variant_report": report.to_json(), "scale_rule_admissibility": admissibility.to_json()}
            passed = report.passed and not admissibility.admissible
            failure = report.failure
    except ConstructionError as exc:
        click.echo(f"construction error: {exc}", err=True)
        sys.exit(2)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    export_domain_json(dom, out / "domain.json")
    export_failure_csv(failure, out / "implied_k.csv")
    cert["seed"] = seed
    cert["worker_count"] = workers
    payload = _write_report(out_dir, "certification.json", cert)
    click.echo(json.dumps({"passed": passed, "out": str(out)}, indent=2))
    sys.exit(0 if passed else 1)


@main.command("constants")
@click.option("--set", "set_name", type=click.Choice(sorted(BUILTIN_SETS)), default=None)
@click.option("--K", "k_value", default=None, type=float)
@click.option("--C", "c_value", default=None, type=float)
@click.option("--mc-samples", default=1_000_000, type=click.IntRange(min=1))
@click.option("--seed", default=0, type=int)
def cmd_constants(set_name, k_value, c_value, mc_samples, seed):
    """Print the overlap constant (analytic and Monte Carlo) and conversions."""
    analytic = lens_constant()
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "constants")))
    pts = sample_in_ball((0.0, 0.0), 1.0, mc_samples, rng)
    inside = (pts[:, 0] + 1.0) ** 2 + pts[:, 1] ** 2 < 1.0
    mc = float(inside.mean())
    lines = {
        "lens_constant_analytic": analytic,
        "lens_constant_mc": mc,
        "mc_samples": mc_samples,
        "seed": seed,
    }
    if set_name is not None:
        d = BUILTIN_SETS[set_name]()
        lines["set"] = set_name
        if k_value is not None:
            lines["C_from_K"] = image_constant_from_ball_constant(k_value, d)
        if c_value is not None:
            lines["K_from_C"] = ball_constant_from_image_constant(c_value, d)
    click.echo(json.dumps(lines, indent=2, sort_keys=True))
    sys.exit(0)


MU = lambda x: 0.5 * (x + 1.0 / x)  # noqa: E731

BUILTIN_SCALE_FUNCTIONS = {
    "linear": lambda: (lambda k: k),
    "periodic": lambda: (lambda k: k * (1.5 + math.sin(2.0 * math.pi * MU(k)))),
    "chain-rule": lambda: _chain_rule_fn(),
}


def _chain_rule_fn():
    from .counterexample import PiecewiseScaleRule

    seq = f1_sequences(3, 6)
    return PiecewiseScaleRule(1.0, seq.a, seq.indices().start)


@main.command("analyze-f")
@click.option("--f", "f_name", type=click.Choice(sorted(BUILTIN_SCALE_FUNCTIONS)), required=True)
@click.option("--window", default="1e-3,1e3")
@click.option("--t-grid", "t_grid", default="0.5,0.75,1.0,1.25")
@click.option("--eps-threshold", default=1.0, type=float)
@click.option("--grid", default=4000, type=int)
@click.option("--out", "out_dir", default=None, type=click.Path())
def cmd_analyze_f(f_name, window, t_grid, eps_threshold, grid, out_dir):
    """Report the window admissibility of a named scale function."""
    try:
        win = _parse_window(window)
        ts = tuple(float(v) for v in t_grid.split(","))
        fn = BUILTIN_SCALE_FUNCTIONS[f_name]()
        if f_name == "chain-rule":
            # default the window onto the rule's gap range so the growth shows
            gaps = fn.gaps()
            win = (gaps[-1][1] / 8.0, 1.0) if window == "1e-3,1e3" else win
        report = f_admissibility(ScaleFunction(fn, win, grid=grid), ts, eps_threshold)
    except (ValueError, KeyError) as exc:
        click.echo(f"invalid scale-function request: {exc}", err=True)
        sys.exit(2)
    payload = _write_report(out_dir, "f_admissibility.json", report.to_json())
    click.echo(json.dumps(payload, indent=2, sort_keys=True))
    sys.exit(0)


@main.command("phi")
@click.option("--kind", type=click.Choice(["boundary_h1", "perimeter", "isoperimetric_deficit"]), required=True)
@click.option("--set", "set_name", type=click.Choice(["unit-square", "unit-disk"]), default="unit-square")
@click.option("--scale", default=1.0, type=float)
def cmd_phi(kind, set_name, scale):
    """Evaluate a scale-homogeneous shape functional on a built-in shape."""
    shape = (
        Region((Rect((0.0, 0.0), (1.0, 1.0)),))
        if set_name == "unit-square"
        else Region((Ball((0.0, 0.0), 1.0),))
    )
    try:
        value = phi_functional(kind, shape, Similarity.identity(2) if scale == 1.0 else Similarity.rotation(0.0, scale))
    except ValueError as exc:
        click.echo(f"invalid functional request: {exc}", err=True)
        sys.exit(2)
    click.echo(json.dumps({"kind": kind, "set": set_name, "scale": scale, "value": value}))
    sys.exit(0)


if __name__ == "__main__":
    main()
