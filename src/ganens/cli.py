"""Command-line entry point: toy, pairwise, optimize, select, quality, gap.

Under fixed flags and seed a rerun writes the same bytes. dnc outputs are
byte-identical whatever the BLAS thread count: the distance estimate's
summation order varies with it, but the decisions, which are exact, do not.
fid values can move in their last digits between thread counts (at most
9.1e-13 relative on a P=20, D=200 pool, whose front kept its members).
Every output file carries its provenance (flags, seeds, metric config, tool
version).
Exit codes: 0 success, 1 usage, 2 data/validation, 3 numeric failure.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click

from . import __version__
from .errors import DataError, GanensError, NumericError, ParameterError
from .metrics import MetricConfig, Orientation
from .objective import (
    EnsembleEvaluator,
    EnsembleGenome,
    ObjectiveVector,
    build_union,
    pairwise_matrix,
)
from .optimize import ParetoFront, SearchConfig, SelectionManifest, check_search, search, select_best
from .report import compute_gap, quality_rows
from .simulate import emit_pool, load_profile_spec
from .store import Pool, json_int, load_pool, read_json, write_embeddings

_METRIC_CHOICES = click.Choice(["dnc", "fid"])
_ALGO_CHOICES = click.Choice(["exhaustive", "random", "nsga2"])


# The search flags, declared once for every command that takes them, in the
# order that provenance records them whatever their order on the command line.
_SEARCH_OPTIONS = {
    "metric": dict(type=_METRIC_CHOICES, default="dnc", show_default=True),
    "k": dict(type=click.IntRange(min=1), default=5, show_default=True),
    "standardize": dict(is_flag=True, default=False),
    "algo": dict(type=_ALGO_CHOICES, default="nsga2", show_default=True),
    "budget": dict(type=click.IntRange(min=1), default=1000, show_default=True),
    "population": dict(type=click.IntRange(min=2), default=50, show_default=True),
    "crossover": dict(type=click.FloatRange(0, 1), default=0.9, show_default=True),
    "mutation": dict(type=click.FloatRange(0, 1), default=None, help="Default 1/|pool|."),
    "seed": dict(type=click.IntRange(min=0), default=0, show_default=True),
    "sample": dict(type=click.IntRange(min=1), default=None,
                   help="Rows per generator for the pairwise matrix."),
    "total": dict(type=click.IntRange(min=1), default=None,
                  help="Union size; default is the real-set size."),
}


def _search_options(*names):
    """Decorator adding the named search flags, or all of them when none are named."""

    def decorate(command):
        for name in reversed(names or tuple(_SEARCH_OPTIONS)):
            command = click.option(f"--{name}", **_SEARCH_OPTIONS[name])(command)
        return command

    return decorate


def _in_order(flags: dict) -> dict:
    """The search flags among ``flags``, in the order of ``_SEARCH_OPTIONS``."""
    return {name: flags[name] for name in _SEARCH_OPTIONS if name in flags}


def _provenance(command: str, **flags) -> dict:
    return {"tool": "ganens", "version": __version__, "command": command, "flags": flags}


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


@click.group()
@click.version_option(__version__, prog_name="ganens")
def cli() -> None:
    """Select a Pareto-optimal ensemble of generators from embedding files."""


@cli.command("toy")
@click.argument("spec", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--out", required=True, type=click.Path(file_okay=False, path_type=Path))
@click.option("--seed", type=click.IntRange(min=0), default=None, help="Override the spec seed.")
def cmd_toy(spec: Path, out: Path, seed: int | None) -> None:
    """Fabricate a synthetic pool from a profile spec and write its manifest."""
    sim = load_profile_spec(spec)
    effective_seed = sim.seed if seed is None else seed
    manifest = emit_pool(list(sim.modes), sim.real_samples, list(sim.profiles), out, effective_seed)
    click.echo(str(manifest))


@cli.command("pairwise")
@click.option("--manifest", required=True, type=click.Path(exists=True, dir_okay=False, path_type=Path))
@_search_options("metric", "k", "standardize", "seed", "sample")
@click.option("--out", required=True, type=click.Path(file_okay=False, path_type=Path))
def cmd_pairwise(manifest, out, **flags) -> None:
    """Compute the symmetric pairwise metric matrix over the pool."""
    pool = load_pool(manifest)
    matrix = pairwise_matrix(
        pool, _metric_config(flags), sample_per_generator=flags["sample"], seed=flags["seed"]
    )
    out.mkdir(parents=True, exist_ok=True)
    provenance = _provenance("pairwise", manifest=str(manifest), **_in_order(flags))
    matrix.write_csv(out / "pairwise.csv", provenance=provenance)
    click.echo(str(out / "pairwise.csv"))


def _metric_config(flags: dict) -> MetricConfig:
    return MetricConfig(kind=flags["metric"], k=flags["k"], standardize=flags["standardize"])


def _run_search(pool, cfg: MetricConfig, flags: dict):
    search_cfg = SearchConfig(
        algorithm=flags["algo"], budget=flags["budget"], population=flags["population"],
        crossover_rate=flags["crossover"], mutation_rate=flags["mutation"], seed=flags["seed"],
    )
    check_search(pool.size, search_cfg)
    evaluator = EnsembleEvaluator(
        pool, cfg, seed=flags["seed"], total=flags["total"], sample_per_generator=flags["sample"]
    )
    return search(pool, evaluator, search_cfg)


def _front_payload(pool, result, provenance: dict) -> dict:
    index_ids = pool.ids
    entries = []
    for genome, objectives in result.front.entries:
        entries.append({
            "ids": [index_ids[i] for i in genome.indices()],
            "intra": objectives.intra,
            "inter": objectives.inter,
            "member_count": objectives.member_count,
        })
    return {
        "provenance": provenance,
        "orientation": result.front.orientation.value,
        "front": entries,
    }


def _scatter_lines(result) -> list[str]:
    on_front = {genome.bits for genome, _ in result.front.entries}
    lines = ["intra,inter,on_front,member_count"]
    for genome, objectives in result.evaluations:
        flag = 1 if genome.bits in on_front else 0
        lines.append(
            f"{objectives.intra!r},{objectives.inter!r},{flag},{objectives.member_count}"
        )
    return lines


@cli.command("optimize")
@click.option("--manifest", required=True, type=click.Path(exists=True, dir_okay=False, path_type=Path))
@_search_options()
@click.option("--out", required=True, type=click.Path(file_okay=False, path_type=Path))
def cmd_optimize(manifest, out, **search) -> None:
    """Search ensemble space and emit the Pareto front plus all evaluated points."""
    pool = load_pool(manifest)
    result = _run_search(pool, _metric_config(search), search)
    provenance = _provenance("optimize", manifest=str(manifest), **_in_order(search))
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "front.json", _front_payload(pool, result, provenance))
    scatter = out / "scatter.csv"
    scatter.write_text("\n".join(_scatter_lines(result)) + "\n", encoding="utf-8")
    _write_json(out / "scatter.csv.meta.json", {"provenance": provenance})
    click.echo(f"front size {len(result.front.entries)} of {len(result.evaluations)} evaluations")


def _selection_payload(selection: SelectionManifest, provenance: dict) -> dict:
    return {
        "provenance": provenance,
        "chosen": list(selection.chosen),
        "quotas": dict(selection.quotas),
        "objectives": {
            "intra": selection.objectives.intra,
            "inter": selection.objectives.inter,
            "member_count": selection.objectives.member_count,
        },
        "front_size": selection.front_size,
        "total": selection.total,
    }


def _select_from_front_file(
    front_path: Path, pool: Pool, cfg: MetricConfig, total: int | None
) -> SelectionManifest:
    """``select_best`` over an exported front, every entry of which is checked."""
    source = f"front file '{front_path}'"
    doc = read_json(front_path, "front file")
    try:
        orientation = Orientation(doc.get("orientation", "higher"))
        rows = [
            (e["ids"], float(e["intra"]), float(e["inter"]),
             json_int(e["member_count"], "member_count"))
            for e in doc.get("front", [])
        ]
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{source} is malformed: {exc!r}") from None
    if orientation is not cfg.orientation:
        raise DataError(
            f"{source} has orientation '{orientation.value}', but --metric {cfg.kind.value} "
            f"is '{cfg.orientation.value}'"
        )
    if not rows:
        raise DataError(f"{source} holds no entries")
    entries = []
    for ids, intra, inter, member_count in rows:
        genome = EnsembleGenome.from_ids(ids, pool, source, "ids")
        if member_count != genome.member_count:
            raise DataError(
                f"{source} gives member_count {member_count} for {genome.member_count} ids"
            )
        if not (math.isfinite(intra) and math.isfinite(inter)):
            raise DataError(f"{source} has non-finite objectives for {ids}")
        entries.append((genome, ObjectiveVector(intra, inter, member_count, cfg)))
    return select_best(ParetoFront(tuple(entries), orientation), pool, total)


@cli.command("select")
@click.option("--manifest", required=True, type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--front", "front_file", type=click.Path(exists=True, dir_okay=False, path_type=Path), default=None)
@_search_options()
@click.option("--emit-union", is_flag=True, default=False, help="Also write the union embedding file.")
@click.option("--out", required=True, type=click.Path(file_okay=False, path_type=Path))
def cmd_select(manifest, front_file, emit_union, out, **search) -> None:
    """Pick the best ensemble and write its selection manifest (and optionally S*)."""
    out.mkdir(parents=True, exist_ok=True)
    provenance = _provenance(
        "select",
        manifest=str(manifest), front=str(front_file) if front_file else None,
        **_in_order(search), emit_union=emit_union,
    )
    pool = load_pool(manifest)
    cfg = _metric_config(search)
    if front_file is not None:
        selection = _select_from_front_file(front_file, pool, cfg, search["total"])
    else:
        result = _run_search(pool, cfg, search)
        selection = select_best(result.front, pool, total=search["total"])
    _write_json(out / "selection.json", _selection_payload(selection, provenance))
    if emit_union:
        union = build_union(selection.quotas, pool, search["seed"])
        write_embeddings(union, out / "union.emb")
    click.echo(",".join(selection.chosen))


@cli.command("quality")
@click.option("--manifest", required=True, type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--selection", type=click.Path(exists=True, dir_okay=False, path_type=Path), default=None)
@_search_options("k", "seed")
@click.option("--include-all", is_flag=True, default=False, help="Add an all-generators union row.")
@click.option("--out", required=True, type=click.Path(file_okay=False, path_type=Path))
def cmd_quality(manifest, selection, include_all, out, **flags) -> None:
    """Per-generator (and union) FID, density, and coverage against the real set."""
    pool = load_pool(manifest)
    quotas = None
    if selection is not None:
        source = f"selection file '{selection}'"
        doc = read_json(selection, "selection file")
        try:
            quotas, objectives = doc["quotas"], doc["objectives"]
            if not isinstance(quotas, dict):
                raise DataError(f"{source} is malformed: 'quotas' must map ids to counts")
            if not all(math.isfinite(float(objectives[axis])) for axis in ("intra", "inter")):
                raise DataError(f"{source} has non-finite objectives")
            member_count = json_int(objectives["member_count"], "member_count")
            json_int(doc["front_size"], "front_size")
            for gid, count in quotas.items():
                json_int(count, f"quota of {gid!r}")
            total = json_int(doc["total"], "total")
            chosen = doc["chosen"]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"{source} is malformed: {exc}") from None
        genome = EnsembleGenome.from_ids(chosen, pool, source, "chosen")
        if set(quotas) != set(chosen):
            raise DataError(f"{source} has quotas for {sorted(quotas)}, but chooses {chosen}")
        if sum(quotas.values()) != total:
            raise DataError(f"{source} has quotas summing to {sum(quotas.values())}, not {total}")
        if member_count != genome.member_count:
            raise DataError(
                f"{source} gives member_count {member_count} for {genome.member_count} ids"
            )
    rows = quality_rows(
        pool, k=flags["k"], seed=flags["seed"], union=quotas, include_all=include_all
    )
    out.mkdir(parents=True, exist_ok=True)
    provenance = _provenance(
        "quality",
        manifest=str(manifest), selection=str(selection) if selection else None,
        **_in_order(flags), include_all=include_all,
    )
    table = ["label,fid,density,coverage"]
    scatter = ["label,diversity,fidelity"]
    for row in rows:
        table.append(f"{row.label},{row.fid!r},{row.density!r},{row.coverage!r}")
        scatter.append(f"{row.label},{row.coverage!r},{row.density!r}")
    (out / "quality.csv").write_text("\n".join(table) + "\n", encoding="utf-8")
    (out / "quality_scatter.csv").write_text("\n".join(scatter) + "\n", encoding="utf-8")
    _write_json(out / "quality.csv.meta.json", {"provenance": provenance})
    for row in rows:
        click.echo(
            f"{row.label}: fid {row.fid:.3f} density {row.density:.3f} coverage {row.coverage:.3f}"
        )


@cli.command("gap")
@click.argument("gmean_real", type=float)
@click.argument("gmean_synth", type=float)
@click.option("--out", type=click.Path(file_okay=False, path_type=Path), default=None)
def cmd_gap(gmean_real: float, gmean_synth: float, out: Path | None) -> None:
    """Real-synthetic percentage gap from a pair of downstream g-means."""
    report = compute_gap(gmean_real, gmean_synth)
    click.echo(
        f"g-mean real {report.gmean_real:.3f} synthetic {report.gmean_synth:.3f} "
        f"gamma_rs {report.formatted()}"
    )
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "gap.json", {
            "provenance": _provenance("gap", gmean_real=gmean_real, gmean_synth=gmean_synth),
            "gmean_real": report.gmean_real,
            "gmean_synth": report.gmean_synth,
            "gamma_rs": report.gamma_rs,
            "gamma_rs_printed": report.formatted(),
        })


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, prog_name="ganens", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except NumericError as exc:
        click.echo(f"numeric error: {exc}", err=True)
        return 3
    except (DataError, ParameterError, GanensError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
