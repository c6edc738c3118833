"""Scenario execution: sweeps, report files and plots.

Artifacts per run (all under the scenario's output directory):

* ``sweep.csv`` / ``sweep.json``  - one row per eps (JSON carries diagnostics)
* ``density_<eps>.csv``           - x, phi, mixture, psi per cell
* ``saltus_<eps>.csv``            - jump location, size, depth
* ``hypotheses.txt``              - hypothesis report, as ``metamap validate`` prints it
* ``densities.svg``, ``l1_vs_eps.svg``, ``rho_vs_eps.svg``
* ``markov.csv``                  - for markov scenarios

Exit status: 0 clean, 2 when at least one sweep row failed, 1 on fatal errors
(raised to the caller).
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from .bv_analysis import jump_decay_profile, saltus_decompose
from .map_model import postcritical_hierarchy, validate_hypotheses
from .metastability import (SweepRow, markov_stationary, prepare_sweep,
                            run_sweep_row)
from .numfmt import join_rows, repr_cells
from .scenarios import Scenario, grid_warnings
from .svgplot import write_line_plot
from .transfer_operator import lasota_yorke_constants, UnsupportedRegimeError


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    text = str(value)
    # quoted as RFC 4180 asks, so an error message keeps to its field
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_sweep_csv(path, rows: list[SweepRow]) -> None:
    """One column per SweepRow field but ``warnings``, which sweep.json holds."""
    columns = [f.name for f in dataclasses.fields(SweepRow) if f.name != "warnings"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_cell(getattr(row, c)) for c in columns) + "\n")


def _cell_centers(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


# Rows per block of a density file: bounds the formatter's temporaries
# (about 0.33 kB per row) to about 5.4 MB at large n.
_DENSITY_ROWS = 16384


def write_density_csv(path, x, mixture, phi, psi=None) -> None:
    """Write the x, phi, mixture, psi columns of one eps, one row per cell.

    ``x`` and ``mixture`` arrive as ``repr_cells`` matrices, because every
    density file of a run shares them; ``phi`` and ``psi`` are float arrays,
    and ``psi=None`` leaves the last field of each row empty.
    """
    n = len(phi)
    n_psi = n if psi is None else len(psi)
    if not len(x) == n == len(mixture) == n_psi:
        raise ValueError(f"density columns differ in length: x {len(x)}, "
                         f"phi {n}, mixture {len(mixture)}, psi {n_psi}")
    with open(path, "wb") as fh:
        fh.write(b"x,phi,mixture,psi\n")
        for start in range(0, n, _DENSITY_ROWS):
            rows = slice(start, start + _DENSITY_ROWS)
            m = len(phi[rows])
            # one call for both columns halves the formatter's per-call cost
            both = repr_cells(phi[rows] if psi is None else np.concatenate([phi[rows], psi[rows]]))
            psi_cells = np.zeros((m, 0), np.uint8) if psi is None else both[m:]
            fh.write(join_rows([x[rows], both[:m], mixture[rows], psi_cells], b",,,\n"))


def run_scenario(scn: Scenario, log=print) -> int:
    if scn.kind == "markov":
        return _run_markov(scn, log)
    return _run_family(scn, log)


def _run_markov(scn: Scenario, log) -> int:
    os.makedirs(scn.out_dir, exist_ok=True)
    path = os.path.join(scn.out_dir, "markov.csv")
    with open(path, "w", newline="") as fh:
        fh.write("eps_lr,eps_rl,alpha,rho\n")
        for eps_lr, eps_rl in scn.markov_pairs:
            alpha, rho = markov_stationary(eps_lr, eps_rl)
            fh.write(f"{eps_lr!r},{eps_rl!r},{alpha!r},{rho!r}\n")
            log(f"markov eps_lr={eps_lr} eps_rl={eps_rl} -> alpha={alpha} rho={rho}")
    log(f"wrote {path}")
    return 0


def _run_family(scn: Scenario, log) -> int:
    fam = scn.family
    warnings = grid_warnings(scn)
    for w in warnings:
        log(f"warning: {w}")

    # a sweep that prepare_sweep refuses leaves no directory and no file
    ctx = prepare_sweep(fam, scn.eps_list, scn.grid_n)
    os.makedirs(scn.out_dir, exist_ok=True)
    report = validate_hypotheses(fam, scn.eps_list)
    hyp_path = os.path.join(scn.out_dir, "hypotheses.txt")
    with open(hyp_path, "w") as fh:
        fh.write("\n".join([f"scenario: {scn.name}", *report.lines()]) + "\n")
    hypotheses = dataclasses.asdict(report)
    # the verdicts that were checked: I3 is None without ergodic densities
    checked = " ".join(f"{k}={v}" for k, v in hypotheses.items() if isinstance(v, bool))
    log(f"hypotheses: {checked} (details in {hyp_path})")
    log(f"alpha_pred = {ctx.alpha_pred!r} on n = {scn.grid_n}")

    results = [run_sweep_row(ctx, e) for e in scn.eps_list]
    rows = [r for r, _ in results]
    arts = [art for _, art in results if art is not None]

    saltus_rows = {}
    for art in arts:
        try:
            ly = lasota_yorke_constants(art.map_eps, base=fam.base)
        except UnsupportedRegimeError as exc:
            log(f"saltus analysis skipped at eps={art.eps:g}: {exc}")
            continue
        dec = saltus_decompose(art.phi, postcritical_hierarchy(art.map_eps, 6),
                               lip_bound=ly.C_LY)
        dec.write_csv(os.path.join(scn.out_dir, f"saltus_{art.eps:g}.csv"))
        saltus_rows[art.eps] = {
            "jumps": len(dec.jumps),
            "unmatched": len(dec.unmatched()),
            "lipschitz_estimate": dec.lipschitz_estimate,
            "decay": [dataclasses.asdict(r) for r in jump_decay_profile(dec, ly, 4)],
        }

    if arts:
        x_cells = repr_cells(_cell_centers(ctx.mixture.n))
        mixture_cells = repr_cells(ctx.mixture.values)
        for art in arts:
            write_density_csv(os.path.join(scn.out_dir, f"density_{art.eps:g}.csv"),
                              x_cells, mixture_cells, art.phi.values,
                              art.psi.values if art.psi is not None else None)

    write_sweep_csv(os.path.join(scn.out_dir, "sweep.csv"), rows)
    _write_sweep_json(scn, warnings, ctx.alpha_pred, rows, hypotheses, saltus_rows)
    _write_plots(scn, ctx, rows, arts)

    for r in rows:
        status = f"FAILED: {r.error}" if r.error else "ok"
        log(f"eps={r.eps:g}: {status}")
    log(f"artifacts in {scn.out_dir}")
    return 2 if any(r.error for r in rows) else 0


def _write_sweep_json(scn, warnings, alpha_pred, rows, hypotheses, saltus_rows) -> None:
    payload = {
        "scenario": scn.name,
        "grid_n": scn.grid_n,
        "alpha_pred": alpha_pred,
        "grid_warnings": warnings,
        "hypotheses": hypotheses,
        "rows": [dataclasses.asdict(r) for r in rows],
        "saltus": {repr(eps): data for eps, data in sorted(saltus_rows.items())},
    }
    with open(os.path.join(scn.out_dir, "sweep.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_plots(scn, ctx, rows, arts) -> None:
    if arts:
        art = arts[-1]
        xs = _cell_centers(art.phi.n)
        series = [(xs, art.phi.values, f"phi eps={art.eps:g}"),
                  (xs, ctx.mixture.values, "predicted mixture")]
        if art.psi is not None:
            series.append((xs, art.psi.values, "psi"))
        write_line_plot(os.path.join(scn.out_dir, "densities.svg"), series,
                        title=f"{scn.name}: invariant density vs mixture",
                        xlabel="x", ylabel="density")

    ok = [r for r in rows if r.error is None and r.l1_phi_vs_mixture is not None]
    if ok:
        eps = [r.eps for r in ok]
        series = [(eps, [r.l1_phi_vs_mixture for r in ok], "|phi - mixture|_L1")]
        with_psi = [r for r in ok if r.l1_psi_vs_half_diff is not None]
        if with_psi:
            series.append(([r.eps for r in with_psi],
                           [r.l1_psi_vs_half_diff for r in with_psi], "|psi - half-diff|_L1"))
        write_line_plot(os.path.join(scn.out_dir, "l1_vs_eps.svg"), series,
                        title=f"{scn.name}: L1 distances vs eps",
                        xlabel="eps", ylabel="L1 distance", logx=True, logy=True)
    ok_rho = [r for r in rows if r.error is None and r.rho is not None]
    if ok_rho:
        write_line_plot(os.path.join(scn.out_dir, "rho_vs_eps.svg"),
                        [([r.eps for r in ok_rho], [r.rho for r in ok_rho],
                          "second eigenvalue")],
                        title=f"{scn.name}: second eigenvalue vs eps",
                        xlabel="eps", ylabel="rho")
