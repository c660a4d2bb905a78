"""Command-line front end.

Subcommands: entropy, feasibility, maxent, scenario, and evolve with the three
engines fd, continuum, and wigner.  Text output has 15 significant digits;
--json prints a query command's (entropy, feasibility, maxent, scenario) same
report as one JSON object, both rendered from one list of rows.  Files follow
the per-engine CSV/JSON formats.  evolve wigner --rotation-check evaluates the
initial Gaussian's closed form at back-rotated points: it shares the state
formula with the library but no evolution code.  Exit codes: 0 success,
1 inadmissible state, 2 usage or configuration error, which includes every
LogentError a command raises, an output path it cannot write (OSError) and
two outputs of one run that are one file.  A run refuses its outputs
before it writes any if one cannot be opened, and a run that fails to
write an output later removes the files it created.

Engine parameters can come from flags or from a flat key = value config
file with one section per engine ([fd], [continuum], [wigner]); unknown
keys, and keys the run would ignore, are rejected, and values are checked
like the flags.  Flags override config values, wherever --config stands.
"""
from __future__ import annotations

import configparser
import contextlib
import errno
import json
import math
import os

import click
import numpy as np

from . import _csv, _grid, densities, dynamics, maxent, vectors, wigner
from .errors import LogentError

CLI_CLASS_TOL = 1e-5  # hand-typed decimals carry ~1e-6 rounding; override with --tol


def _fmt(v: float) -> str:
    return f"{v:.15g}"


def _summary(width: int, rows) -> None:
    """Print one `label = value` line per row, labels padded to width: words,
    flags and integers as is, lists as (a, b, ...), other numbers by _fmt."""
    for label, value in rows:
        if isinstance(value, list):
            value = f"({', '.join(map(_fmt, value))})"
        click.echo(f"{label:<{width}} = {value if isinstance(value, (str, int)) else _fmt(float(value))}")


def _report(as_json: bool, width: int, rows) -> None:
    """Print (json key, text label, value) rows as one JSON object of the keyed
    rows, or the labelled rows by _summary; no key: text-only, no label: JSON-only."""
    if as_json:
        click.echo(json.dumps({key: value for key, _, value in rows if key is not None}))
    else:
        _summary(width, [(label, value) for _, label, value in rows if label is not None])


def _parse_vector(text: str) -> np.ndarray:
    try:
        entries = np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError as exc:
        raise click.UsageError(f"cannot parse vector {text!r}: {exc}")
    if entries.size < 2:
        raise click.UsageError("need at least two comma-separated entries")
    return entries


def _normalized_vector(entries: np.ndarray) -> vectors.SignedProbVector:
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        total = entries.sum()
    if total == 0.0 or not np.isfinite(total):
        raise click.UsageError(f"entries sum to {total}, cannot normalize")
    if abs(total - 1.0) > _grid.QUAD_TOL:
        entries = entries / total
    return vectors.SignedProbVector(entries)


def _load_section(path: str, section: str, table: dict) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        read = parser.read(path, encoding="utf-8")
        items = parser.items(section) if parser.has_section(section) else None
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise click.UsageError(f"malformed config file {path!r}: {exc}") from exc
    if not read:
        raise click.UsageError(f"cannot read config file {path!r}")
    if items is None:
        raise click.UsageError(f"config file lacks a [{section}] section")
    out = {}
    for key, raw in items:
        if key not in table:
            raise click.UsageError(f"unknown key {key!r} in [{section}]")
        try:
            out[key] = click.types.convert_type(table[key][0]).convert(raw, None, None)
        except click.BadParameter as exc:
            raise click.UsageError(f"bad value for {key!r} in [{section}]: {exc.message}")
    return out


def _reject_set(reason: str, **keys) -> None:
    """Exit 2 naming the first of keys set by flag or config; the run ignores them."""
    for key, value in keys.items():
        if value is not None:
            raise click.UsageError(f"{key!r} has no effect with {reason}")


class _Command(click.Command):
    """A command whose LogentError, or OSError (an unwritable output path),
    exits 2 with its message, like a bad flag."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (LogentError, OSError) as exc:
            raise click.UsageError(str(exc), ctx) from exc


def _openable(path) -> None:
    """The OSError open(path, "wb") would raise for a directory there, an
    existing file without write access, or a new file whose directory is
    missing or refuses new files; nothing is opened or made."""
    folder = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        code = errno.EISDIR
    elif os.path.exists(path):
        code = 0 if os.access(path, os.W_OK) else errno.EACCES
    elif os.path.isdir(folder):
        code = 0 if os.access(folder, os.W_OK | os.X_OK) else errno.EACCES
    else:
        code = errno.ENOENT
    if code:
        raise OSError(code, os.strerror(code), path)


@contextlib.contextmanager
def _all_or_none(*paths):
    """Refuse the paths, before the block writes any, if one cannot be
    opened (_openable), so that such a run leaves every file as it was; if
    the block raises later, remove those of paths that did not exist before
    it, so that a run that fails to write one output leaves no new one."""
    for p in paths:
        _openable(p)
    created = [p for p in paths if not os.path.lexists(p)]
    try:
        yield
    except BaseException:
        for p in created:
            with contextlib.suppress(OSError):
                os.remove(p)
        raise


def _distinct(flag: str, snapshot, diag) -> None:
    """UsageError when two of a run's outputs, the snapshot given by flag,
    its sidecar and the diagnostics, are one file by os.path.realpath: the
    later write would replace the earlier one."""
    seen = {}
    for label, path in [(flag, snapshot), (f"the {flag} sidecar", _grid.sidecar(snapshot)),
                        ("--output-diag", diag)]:
        other = seen.setdefault(os.path.realpath(path), label)
        if other != label:
            raise click.UsageError(f"{label} names the file of {other}: {path}")


class _Group(click.Group):
    command_class = _Command
    group_class = type  # subgroups are _Group too


@click.group(cls=_Group)
def main():
    """Signed probabilities, quadratic entropy, and conserving dynamics."""


# ---------------------------------------------------------------------------
# entropy and feasibility

_RADII = ("r_max", "r_pos", "r_min", "negatives_possible")  # the reported radii fields


@main.command()
@click.option("--p", "pstr", default=None, help="Comma-separated entries.")
@click.option(
    "--file", "path", type=click.Path(exists=True), default=None, help="JSON array file."
)
@click.option("--tol", default=CLI_CLASS_TOL, show_default=True, help="Classification tolerance.")
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON report.")
@click.pass_context
def entropy(ctx, pstr, path, tol, as_json):
    """Entropy, information, classification, and feasibility radii."""
    if (pstr is None) == (path is None):
        raise click.UsageError("provide exactly one of --p or --file")
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entries = _grid.real_array(json.load(fh), "vector")
        except (OSError, ValueError) as exc:  # a LogentError is a ValueError
            raise click.UsageError(f"cannot read vector from {path!r}: {exc}")
    else:
        entries = _parse_vector(pstr)
    vec = _normalized_vector(entries)
    cls = vectors.classify(vec, tol=tol)
    radii = vectors.feasibility_radii(vec.n)
    _report(as_json, 12, [
        ("n", "n", vec.n),
        ("entropy", "S_L", vec.logical_entropy),
        ("information", "I", vec.information),
        ("class", "class", cls.value),
        (None, "radii", f"(r_max {_fmt(radii.r_max)}, r_pos {_fmt(radii.r_pos)}, "
                        f"r_min {_fmt(radii.r_min)})"),
        *((name, None, getattr(radii, name)) for name in _RADII),
    ])
    if cls is vectors.StateClass.INADMISSIBLE:
        ctx.exit(1)


@main.command()
@click.option("--n", required=True, type=int, help="Number of outcomes.")
@click.option("--json", "as_json", is_flag=True)
def feasibility(n, as_json):
    """Feasibility radii for n outcomes."""
    radii = vectors.feasibility_radii(n)
    rows = [(name, name, getattr(radii, name)) for name in _RADII]
    _report(as_json, 5, [("n", None, radii.n), *rows])


# ---------------------------------------------------------------------------
# maxent


@main.command("maxent")
@click.option("--x", "xstr", required=True, help="Comma-separated observable values.")
@click.option("--m", "target", type=float, default=None, help="Target mean.")
@click.option("--find-max", is_flag=True, help="Report the largest admissible mean.")
@click.option("--nonnegative", is_flag=True, help="Restrict to all-nonnegative solutions.")
@click.option("--negative-branch", is_flag=True, help="Report the lower bound instead.")
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
def maxent_cmd(ctx, xstr, target, find_max, nonnegative, negative_branch, as_json):
    """Entropy maximization under a mean-value constraint."""
    x = _parse_vector(xstr)
    if (target is None) == (not find_max):
        raise click.UsageError("provide exactly one of --m or --find-max")
    if not find_max:
        _reject_set("--m: it needs --find-max", nonnegative=nonnegative or None,
                    negative_branch=negative_branch or None)
    constraint = maxent.ObservableConstraint(x, target_mean=target)
    if find_max:
        bound_of = maxent.max_mean_nonnegative if nonnegative else maxent.max_mean
        bound = bound_of(constraint, negative_branch=negative_branch)
        constraint = maxent.ObservableConstraint(x, target_mean=bound)
    sol = maxent.equilibrium(constraint)
    p, info = ("p", "p", list(sol.p.entries)), ("information", "I", sol.information)
    if find_max:
        _report(as_json, 5, [("m_max", "m_max", bound), p, info])
        return
    _report(as_json, 6, [
        p, ("lambda", "lambda", sol.lam), ("mu", "mu", sol.mu), info,
        ("admissible", "admissible", sol.admissible),
    ])
    if not sol.admissible:
        ctx.exit(1)


# ---------------------------------------------------------------------------
# scenario


@main.command()
@click.argument("name", type=click.Choice(["marbles", "die"]))
@click.option("--json", "as_json", is_flag=True)
def scenario(name, as_json):
    """Worked two-draw scenarios with signed probabilities."""
    if name == "marbles":
        p = vectors.SignedProbVector(np.array([2.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0]))
        q = vectors.SignedProbVector(np.array([-1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0]))
        pair = vectors.pair_outcome_probability
        prob_rr, not_rr = pair(q, 0, 0), pair(p, 1, 1) + pair(p, 2, 2)
        _report(as_json, 15, [
            ("p", "bag p [R, B, G]", list(p.entries)),
            ("q", "bag q [R, B, G]", list(q.entries)),
            ("p_dot_q", "p . q", vectors.scalar_product(p, q)),
            ("prob_q_RR", "Prob_q(RR)", prob_rr),
            ("prob_p_notR_notR", "Prob_p(~R ~R)", not_rr),
            ("consistent", "consistent", abs(prob_rr - not_rr) < 1e-12),
        ])
        return
    x = np.array([-1.0, 0.0, 1.0])  # the die's unevenness observable
    rows = [(None, "X", list(x))]
    for kind, bound_of in (("classical", maxent.max_mean_nonnegative), ("signed", maxent.max_mean)):
        m = bound_of(maxent.ObservableConstraint(x))
        sol = maxent.equilibrium(maxent.ObservableConstraint(x, target_mean=m))
        rows += [
            (f"{kind}_m_max", f"{kind} m_max", m),
            (f"{kind}_p", f"{kind} p", list(sol.p.entries)),
            (f"{kind}_information", f"{kind} I", sol.information),
        ]
    _report(as_json, 15, rows)


# ---------------------------------------------------------------------------
# evolve


@main.group()
def evolve():
    """Run one of the evolution engines and export its data."""


def _engine(section: str, table: dict):
    """Give an evolve command --config and one --<key> option per key.

    table maps each key to (click type, default[, help]); the key names the
    config entry and, with "-" for "_", the flag.  --config is eager, so its
    [section] becomes the context's default_map before any key is resolved,
    and click takes each key's flag, else its config value, else its default.
    Config values pass through the flag's click type, so both are checked
    alike.
    """

    def load(ctx, param, path):
        if path is not None:
            ctx.default_map = _load_section(path, section, table)

    def decorate(fn):
        for key, (ctype, default, *text) in reversed(table.items()):
            flag = "--" + key.replace("_", "-")
            help_text = text[0] if text else None
            fn = click.option(flag, key, default=default, type=ctype, help=help_text)(fn)
        config = click.option(
            "--config", type=click.Path(exists=True), is_eager=True, expose_value=False, callback=load
        )
        return config(fn)

    return decorate


_FD = {
    "generator": (click.Choice(["cyclic3", "random"]), "cyclic3"),
    "n": (int, None),  # random only; default: 3
    "seed": (int, None),  # random only; default: 0
    "rate": (float, None),  # 1/time; default: sqrt(3)/3 for cyclic3, 1 for random
    "p0": (str, "1,0,0", "Comma-separated initial state."),
    "t_end": (float, 10.0),  # time
    "dt": (float, 0.1),  # time
    "output": (click.Path(), "fd_trajectory.csv"),
}


@evolve.command("fd")
@_engine("fd", _FD)
def evolve_fd(generator, n, seed, rate, p0, t_end, dt, output):
    """Finite-dimensional rotation run; writes the trajectory CSV."""
    if generator == "cyclic3":
        _reject_set("generator = cyclic3", n=n, seed=seed)
        gen = dynamics.cyclic_generator3()
        if rate is not None:
            gen = dynamics.GeneratorMatrix.from_dense(gen.matrix, rate=rate)  # checks the rate
    else:
        n = 3 if n is None else n
        gen = dynamics.random_generator(n, seed or 0, rate=1.0 if rate is None else rate)
    rec = dynamics.trajectory(_normalized_vector(_parse_vector(p0)), gen, t_end, dt)
    with _all_or_none(output):
        dynamics.write_trajectory_csv(rec, output)
    _summary(14, [
        ("samples", len(rec.times)),
        ("max |sum-1|", np.max(rec.probability_drift)),
        ("max |I-I(0)|", np.max(rec.information_drift)),
    ])
    click.echo(f"trajectory written to {output}")


_CONTINUUM = {
    "n": (int, 1024),
    "length": (float, 8.0),  # z units
    "h": (float, 1.0),  # z units
    "sigma": (float, None),  # z units; default: the saturating h/(2 sqrt(pi))
    "center": (float, 0.0),  # z units
    "omega_family": (click.Choice(list(densities.PotentialSpec._POWERS)), "harmonic"),
    "coeff": (float, 1.0),  # 1/time (constant, linear per z, etc.)
    "a": (float, 0.0),  # z units
    "t_end": (float, 1.0),  # time
    "samples": (int, 100),
    "output_grid": (click.Path(), "continuum_final.csv"),
    "output_diag": (click.Path(), "continuum_diag.csv"),
}


@evolve.command("continuum")
@_engine("continuum", _CONTINUUM)
@click.option(
    "--cross-check", is_flag=True, help="Compare against the momentum-only quadrature path."
)
def evolve_continuum(
    n, length, h, sigma, center, omega_family, coeff, a, t_end, samples,
    output_grid, output_diag, cross_check,
):
    """Spectral line-density run; writes final grid and diagnostics."""
    _distinct("--output-grid", output_grid, output_diag)
    if sigma is None:
        sigma = h / (2.0 * math.sqrt(math.pi))
    f0 = densities.gaussian_density(n, length, h, sigma, center=center)
    kern = densities.build_kernel(densities.PotentialSpec(omega_family, (coeff,)).evaluate, a, f0)
    rec, final = densities.density_run(f0, kern, t_end, samples)
    if cross_check:
        try:
            # Omega = 2 pi V / h, so V carries a factor h / (2 pi) relative to Omega
            potential = densities.PotentialSpec(omega_family, (coeff * (h / (2.0 * math.pi)),))
            other = wigner.delta_localized_evolve(f0, potential, a, t_end)
        except LogentError as exc:
            raise click.UsageError(f"{exc} (--cross-check oracle)") from exc
    with _all_or_none(output_grid, _grid.sidecar(output_grid), output_diag):
        densities.write_density_csv(final, output_grid)
        _csv.write_csv(output_diag, "t,sum,I,max_mode_drift", [rec.times], rec.diagnostics, 15)
    _summary(18, [
        ("samples", samples),
        ("max |sum-1|", np.max(np.abs(rec.total_probability - 1.0))),
        ("max |I-I(0)|", np.max(np.abs(rec.information - f0.information))),
        ("max mode drift", np.max(rec.mode_drift)),
    ])
    click.echo(f"grid written to {output_grid}, diagnostics to {output_diag}")
    if cross_check:
        _summary(18, [("cross-check Linf", np.max(np.abs(other.values - final.values)))])


_WIGNER = {
    "potential": (click.Choice(["free", "harmonic", "quartic"]), "harmonic"),
    "omega": (float, None),  # 1/time; harmonic only, default: 1
    "beta": (float, None),  # energy / x^4; quartic only, default: 0.1
    "nx": (int, 128),
    "npts": (int, 128),
    "lx": (float, 8.0),  # x units
    "lp": (float, 8.0),  # p units
    "h": (float, 1.0),  # action units
    "mass": (float, 1.0),
    "sigma_x": (float, None),  # x units; default: h/(2 sqrt(pi))
    "x_center": (float, 0.0),
    "p_center": (float, 0.0),
    "t_end": (float, 1.0),  # time
    "dt": (float, None),  # time; default: the solver's step rule
    "output_snapshot": (click.Path(), "wigner_final.csv"),
    "output_diag": (click.Path(), "wigner_diag.csv"),
}


@evolve.command("wigner")
@_engine("wigner", _WIGNER)
@click.option(
    "--rotation-check",
    is_flag=True,
    help="For harmonic runs, compare against the analytic rigid rotation.",
)
def evolve_wigner(
    potential, omega, beta, nx, npts, lx, lp, h, mass, sigma_x, x_center, p_center,
    t_end, dt, output_snapshot, output_diag, rotation_check,
):
    """Phase-space split-step run; writes snapshot and diagnostics."""
    _distinct("--output-snapshot", output_snapshot, output_diag)
    if potential != "harmonic":
        _reject_set(f"potential = {potential}", omega=omega)
    if potential != "quartic":
        _reject_set(f"potential = {potential}", beta=beta)
    if rotation_check and potential != "harmonic":
        raise click.UsageError("--rotation-check requires the harmonic potential")
    if rotation_check and omega == 0.0:
        raise click.UsageError("--rotation-check needs a nonzero omega")
    if sigma_x is None:
        sigma_x = h / (2.0 * math.sqrt(math.pi))
    if potential == "free":
        pot = wigner.PotentialSpec.constant(0.0)
    elif potential == "harmonic":
        omega = 1.0 if omega is None else omega
        pot = wigner.PotentialSpec.harmonic(omega, mass=mass)
    else:
        pot = wigner.PotentialSpec.quartic(0.1 if beta is None else beta)
    w0 = wigner.gaussian_pure_wigner(
        nx, npts, lx, lp, sigma_x, h=h, mass=mass, x_center=x_center, p_center=p_center
    )
    rec, final = wigner.wigner_run(w0, pot, t_end, dt)
    with _all_or_none(output_snapshot, _grid.sidecar(output_snapshot), output_diag):
        wigner.write_wigner_csv(final, output_snapshot)
        wigner.write_diagnostics_csv(rec, output_diag)
    m3 = rec.moment3
    _summary(16, [
        ("steps", len(rec.times) - 1),
        ("max |sum-1|", np.max(np.abs(rec.total_probability - rec.total_probability[0]))),
        ("max |I-I(0)|", np.max(np.abs(rec.information - rec.information[0]))),
        ("moment3 change", abs(m3[-1] - m3[0]) / abs(m3[0]) if m3[0] != 0.0 else math.nan),
        ("min w", np.min(rec.min_value)),
    ])
    click.echo(f"snapshot written to {output_snapshot}, diagnostics to {output_diag}")
    if rotation_check:  # the initial state's closed form at back-rotated points
        xg, pg = final.x[:, None], final.p[None, :]
        cos_t, sin_t = math.cos(omega * t_end), math.sin(omega * t_end)
        x_back = xg * cos_t - pg / (mass * omega) * sin_t
        p_back = pg * cos_t + mass * omega * xg * sin_t
        ref = wigner._gaussian(x_back, p_back, sigma_x, h, x_center, p_center)
        num = math.sqrt(float(np.sum((final.values - ref) ** 2)) * final.dx * final.dp)
        den = math.sqrt(float(np.sum(ref**2)) * final.dx * final.dp)
        _summary(16, [("rotation-check L2", num / den)])


if __name__ == "__main__":
    main()
