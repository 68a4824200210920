"""Planted-fault cases for the benchmark's checks.

    python3 perfbench/selftest.py

Runs small rounds of real ``ganens`` commands in this process, requires
every check to pass on their output, then plants one fault at a time in a
copy of an output file and requires the matching check to fail. Exits 1 if
any case misbehaves.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

import checks as C
import run as R
import workloads as W

ONE_BALL = 1.0 / (W.K * 600)  # one ball decision in the fixture's density


def edit_json(path: Path, fn):
    def apply():
        doc = json.loads(path.read_text())
        fn(doc)
        path.write_text(json.dumps(doc))
    return path, apply


def edit_csv(path: Path, fn):
    def apply():
        lines = path.read_text().strip().split("\n")
        rows = [line.split(",") for line in lines]
        fn(rows)
        path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    return path, apply


def edit_emb(path: Path, fn):
    def apply():
        data = C.read_emb(path).copy()
        fn(data)
        path.write_bytes(path.read_bytes()[:12] + data.astype("<f4").tobytes())
    return path, apply


class Cases:
    def __init__(self) -> None:
        self.bad: list[str] = []
        self.count = 0

    def passes(self, name: str, check) -> None:
        self.count += 1
        try:
            check()
        except C.CheckFailed as exc:
            self.bad.append(f"{name}: failed on good output: {exc}")

    def planted(self, name: str, check, *edits) -> None:
        """Apply the edits, require the check to fail, restore the files."""
        self.count += 1
        saved = {path: path.read_bytes() for path, _ in edits}
        try:
            for _, apply in edits:
                apply()
            check()
            self.bad.append(f"{name}: planted fault was not detected")
        except C.CheckFailed:
            pass
        finally:
            for path, raw in saved.items():
                path.write_bytes(raw)


def run_ops(runner: R.Runner, ops) -> None:
    for op in ops:
        runner.in_process(op)
        if op.exit_code != 0:
            raise SystemExit(f"{op.argv} exited {op.exit_code}: {op.output}")


def fixture_cases(t: Cases, ctx: W.Context, runner: R.Runner) -> None:
    toy = W.FIXTURE.fabricate(ctx, 0)
    run_ops(runner, toy)
    pool_dir = ctx.work / "pool0"
    t.passes("toy", toy[0].check)
    t.planted("toy: a real row far from every mode", toy[0].check,
              edit_emb(pool_dir / "real.emb", lambda d: d.__setitem__((0, 0), d[0, 0] + 50)))

    pairwise, optimize, selfront, select, quality = ops = W.FIXTURE.round_ops(ctx, 0)
    run_ops(runner, ops)
    for op in ops:
        t.passes(" ".join(op.argv[:2]), op.check)
    out = ctx.work / "round0"

    def bump(i, j, delta):
        def fn(rows):
            rows[i + 1][j + 1] = repr(float(rows[i + 1][j + 1]) + delta)
        return fn

    t.planted("pairwise: one entry off by one ball decision", pairwise.check,
              edit_csv(out / "pairwise" / "pairwise.csv",
                       lambda r: (bump(0, 1, ONE_BALL)(r), bump(1, 0, ONE_BALL)(r))))
    t.planted("pairwise: asymmetric entry", pairwise.check,
              edit_csv(out / "pairwise" / "pairwise.csv", bump(0, 1, 1e-9)))

    front, scatter = out / "opt" / "front.json", out / "opt" / "scatter.csv"

    def add_dominated(doc):
        e = dict(doc["front"][0])
        e.update(intra=e["intra"] - 0.1, inter=e["inter"] + 0.1)
        doc["front"].append(e)

    t.planted("front: an added dominated entry", optimize.check, edit_json(front, add_dominated))
    t.planted("scatter: a row fewer than the budget", optimize.check,
              edit_csv(scatter, lambda r: r.pop()))

    def off_front_row(rows):
        return next(r for r in rows[1:] if r[2] == "0")

    t.planted("scatter: a non-front row flagged on_front", optimize.check,
              edit_csv(scatter, lambda r: off_front_row(r).__setitem__(2, "1")))

    def dominating(rows):
        row = off_front_row(rows)
        row[0] = repr(max(float(x[0]) for x in rows[1:]) + 0.01)
        row[1] = repr(min(float(x[1]) for x in rows[1:]) - 0.01)

    t.planted("scatter: a row outside the front's dominance", optimize.check,
              edit_csv(scatter, dominating))

    selection = out / "selfront" / "selection.json"

    def move_quota(doc):
        a, b = sorted(doc["quotas"])[:2] if len(doc["quotas"]) > 1 else (None, None)
        if a is None:
            doc["quotas"] = {k: v + 1 for k, v in doc["quotas"].items()}
            return
        doc["quotas"][a] -= 1
        doc["quotas"][b] += 1

    t.planted("selection: one quota moved by one row", selfront.check,
              edit_json(selection, move_quota))
    t.planted("selection: not the max-fidelity entry", selfront.check,
              edit_json(selection, lambda d: d["objectives"].__setitem__(
                  "intra", d["objectives"]["intra"] - 0.01)))

    union = out / "sel" / "union.emb"
    pool = C.read_pool(pool_dir / "manifest.json")
    chosen = json.loads((out / "sel" / "selection.json").read_text())["chosen"]
    stranger = next(g for g in pool["ids"] if g not in chosen)
    t.planted("union: a row of an unchosen generator", select.check,
              edit_emb(union, lambda d: d.__setitem__(0, pool["sets"][stranger][0])))
    t.planted("union: one value one ulp off", select.check,
              edit_emb(union, lambda d: d.__setitem__(
                  (1, 0), np.nextafter(d[1, 0], np.float32(1e9)))))

    def shift_best(field, delta):
        """Shift an objective of the chosen entry in the front and the selection alike."""
        def front_fn(doc):
            for e in doc["front"]:
                if sorted(e["ids"]) == sorted(chosen):
                    e[field] += delta
        return (edit_json(front, front_fn),
                edit_json(out / "sel" / "selection.json", lambda d: d["objectives"].__setitem__(
                    field, d["objectives"][field] + delta)))

    t.planted("select: intra-d off by one ball decision", select.check,
              *shift_best("intra", ONE_BALL))
    t.planted("select: inter-d off by 1e-9", select.check, *shift_best("inter", 1e-9))

    table = out / "quality" / "quality.csv"
    t.planted("quality: a density off by one ball decision", quality.check,
              edit_csv(table, lambda r: r[1].__setitem__(2, repr(float(r[1][2]) + ONE_BALL))))
    t.planted("quality: a FID off by 1e-5 relative", quality.check,
              edit_csv(table, lambda r: r[1].__setitem__(1, repr(float(r[1][1]) * (1 + 1e-5)))))
    t.planted("quality: union coverage off by one point", quality.check,
              edit_csv(table, lambda r: r[-2].__setitem__(3, repr(float(r[-2][3]) - 1 / 600))))

    best = {"ids": ["A", "B"], "member_count": 2, "intra": 0.9}
    floor = W.FIXTURE_MIN_COVERAGE
    t.passes("mode recovery", lambda: C.check_mode_recovery(best, 0.93, floor))
    t.planted("mode recovery: E selected", lambda: C.check_mode_recovery(
        dict(best, ids=["A", "B", "E"]), 0.97, floor))
    t.planted("mode recovery: a mode missed", lambda: C.check_mode_recovery(best, 0.75, floor))


def fid_cases(t: Cases, ctx: W.Context, runner: R.Runner) -> None:
    """The Fréchet route on the fixture pool, exhaustive by a full NSGA-II budget."""
    shutil.copytree(ctx.work / "pool0", ctx.work / "pool")
    shape = W.SearchShape("fid", rows=600, dim=8, modes=4, budget=63)
    ops = W._search_ops(ctx, 9, shape)
    optimize, select = ops[0], ops[1]  # the first of the repeated selects
    run_ops(runner, ops)
    t.passes("fid optimize", optimize.check)
    t.passes("fid select", select.check)
    out = ctx.work / "round9"
    sel = json.loads((out / "sel0" / "selection.json").read_text())

    def scale(doc_field, factor):
        def front_fn(doc):
            for e in doc["front"]:
                if sorted(e["ids"]) == sorted(sel["chosen"]):
                    e[doc_field] *= factor
        return (edit_json(out / "opt" / "front.json", front_fn),
                edit_json(out / "sel0" / "selection.json", lambda d: d["objectives"].__setitem__(
                    doc_field, d["objectives"][doc_field] * factor)))

    t.planted("fid select: intra-d off by 1e-5 relative", select.check, *scale("intra", 1 + 1e-5))
    if len(sel["chosen"]) > 1:
        t.planted("fid select: inter-d off by 1e-5 relative", select.check,
                  *scale("inter", 1 + 1e-5))


def probe_cases(t: Cases, ctx: W.Context, runner: R.Runner) -> None:
    """The quota-order probe fails by the program's fault, and only by it."""
    W._write_probe(ctx.work / "probe")
    probe = W._p110_round(ctx, 0)[-1]
    run_ops(runner, [probe])
    t.planted("probe: select --front quotas against union.emb (program fault)", probe.check)
    selection = ctx.work / "round0" / f"probe{W.SELECT_REPEATS - 1}" / "selection.json"
    ids = sorted(W.PROBE_FRONT, key=lambda g: int(g.split("-")[1]))  # canonical order

    def canonical(doc):
        base, extra = divmod(doc["total"], len(ids))
        doc["quotas"] = {g: base + (1 if i < extra else 0) for i, g in enumerate(ids)}

    path, apply = edit_json(selection, canonical)
    saved = path.read_bytes()
    apply()
    t.passes("probe: passes once the quotas follow the canonical order", probe.check)
    path.write_bytes(saved)


def main() -> int:
    if not (R.SRC / "ganens" / "cli.py").is_file():
        print("error: run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(R.SRC))
    work = R.OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = W.Context(work=work, seed=0)
    runner = R.Runner(work)
    t = Cases()
    try:
        fixture_cases(t, ctx, runner)
        fid_cases(t, ctx, runner)
        probe_cases(t, ctx, runner)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
    for line in t.bad:
        print("FAIL " + line)
    print(f"{t.count - len(t.bad)} of {t.count} cases behaved")
    return 1 if t.bad else 0


if __name__ == "__main__":
    sys.exit(main())
