"""Output checks computed apart from the program.

Nothing here imports ``ganens``: embedding files are parsed from their
documented byte layout, distances come from direct differencing, moments
from explicit sums and the Fréchet trace term from the eigenvalues of the
covariance product. Every check raises ``CheckFailed`` with a reason.
"""
from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

# Density and coverage are ratios of ball-membership counts. The oracle sums
# squared differences in another order than the program, so a decision could
# differ only for a point within a few ulps of a radius; agreement is
# required to 1e-12 absolute, which means every decision is the same.
DNC_TOL = 1e-12
# Relative tolerance of a Fréchet value (absolute below 1): the oracle takes
# the trace term from the eigenvalues of the non-symmetric product S_a S_b,
# the program from a symmetric square root, so they round differently.
FID_RTOL = 1e-7


class CheckFailed(Exception):
    """An output violates a property the method guarantees."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- files ---------------------------------------------------------------

def read_emb(path: str | Path) -> np.ndarray:
    """EMB1 file: magic, uint32 rows, uint32 dim, little-endian float32 rows."""
    raw = Path(path).read_bytes()
    require(raw[:4] == b"EMB1", f"{path}: bad magic")
    n, d = struct.unpack_from("<II", raw, 4)
    require(len(raw) == 12 + 4 * n * d, f"{path}: size does not match header {n}x{d}")
    return np.frombuffer(raw, dtype="<f4", offset=12).reshape(n, d)


def read_pool(manifest: str | Path) -> dict:
    """Real set and generator sets of a manifest, generators in (model, iteration) order."""
    manifest = Path(manifest)
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    gens = sorted(doc["generators"], key=lambda g: (str(g["model"]), int(g["iteration"])))
    return {
        "real": read_emb(manifest.parent / doc["real"]),
        "ids": [str(g["id"]) for g in gens],
        "sets": {str(g["id"]): read_emb(manifest.parent / g["path"]) for g in gens},
    }


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    lines = Path(path).read_text(encoding="utf-8").strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def read_scatter(path: str | Path) -> list[tuple[float, float, int, int]]:
    header, rows = read_csv(path)
    require(header == ["intra", "inter", "on_front", "member_count"], f"{path}: header {header}")
    return [(float(a), float(b), int(c), int(d)) for a, b, c, d in rows]


# --- density and coverage ------------------------------------------------

def distances(x: np.ndarray, y: np.ndarray, block: int = 64) -> np.ndarray:
    """All-pairs Euclidean distances by direct differencing, in row blocks."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    out = np.empty((x.shape[0], y.shape[0]))
    for start in range(0, x.shape[0], block):
        diff = x[start:start + block, None, :] - y[None, :, :]
        out[start:start + block] = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    return out


def kth_neighbour_radii(ref: np.ndarray, k: int) -> np.ndarray:
    """Distance from each point to its k-th nearest other point of the same set."""
    d = distances(ref, ref)
    np.fill_diagonal(d, np.inf)
    return np.sort(d, axis=1)[:, k - 1]


def density_coverage(real: np.ndarray, cand: np.ndarray, k: int,
                     radii: np.ndarray | None = None) -> tuple[float, float]:
    """Naeem et al. density and coverage with closed k-NN balls around real points."""
    if radii is None:
        radii = kth_neighbour_radii(real, k)
    inside = distances(real, cand) <= radii[:, None]
    return float(inside.sum()) / (k * cand.shape[0]), float(inside.any(axis=1).mean())


def harmonic(dns: float, cvg: float) -> float:
    return 0.0 if dns + cvg == 0 else 2.0 * dns * cvg / (dns + cvg)


# --- Fréchet -------------------------------------------------------------

def moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    mean = x.sum(axis=0) / x.shape[0]
    centred = x - mean
    return mean, centred.T @ centred / (x.shape[0] - 1)


def frechet(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]) -> float:
    """||mu_a - mu_b||^2 + Tr(S_a) + Tr(S_b) - 2 sum sqrt(eig(S_a S_b))."""
    (mu_a, s_a), (mu_b, s_b) = a, b
    eig = np.linalg.eigvals(s_a @ s_b).real
    diff = mu_a - mu_b
    value = diff @ diff + np.trace(s_a) + np.trace(s_b) - 2.0 * np.sqrt(np.clip(eig, 0, None)).sum()
    return max(0.0, float(value))


def require_close(got: float, want: float, metric: str, what: str) -> None:
    """Program value against oracle value under the tolerance of its metric."""
    tol = FID_RTOL * max(1.0, abs(want)) if metric == "fid" else DNC_TOL
    require(abs(got - want) <= tol, f"{what}: program {got!r}, oracle {want!r}")


class Oracle:
    """Metric values of one pool, each computed once per benchmark run."""

    def __init__(self, pool: dict, metric: str, k: int = 5) -> None:
        self.pool = pool
        self.metric = metric
        self.k = k
        self._radii: dict[str, np.ndarray] = {}
        self._moments: dict[str, tuple] = {}
        self._pairs: dict[tuple[str, str], float] = {}

    def radii(self, gid: str) -> np.ndarray:
        if gid not in self._radii:
            data = self.pool["real"] if gid == "" else self.pool["sets"][gid]
            self._radii[gid] = kth_neighbour_radii(data, self.k)
        return self._radii[gid]

    def moments(self, gid: str):
        if gid not in self._moments:
            data = self.pool["real"] if gid == "" else self.pool["sets"][gid]
            self._moments[gid] = moments(data)
        return self._moments[gid]

    def against_real(self, cand: np.ndarray) -> float:
        """Intra-d: the metric between the real set and a candidate set."""
        if self.metric == "fid":
            return frechet(self.moments(""), moments(cand))
        return harmonic(*density_coverage(self.pool["real"], cand, self.k, self.radii("")))

    def pair(self, a: str, b: str) -> float:
        """Symmetrized pairwise metric between two generators' full sets."""
        key = (a, b) if a < b else (b, a)
        if key not in self._pairs:
            if self.metric == "fid":
                value = frechet(self.moments(a), self.moments(b))
            else:
                sets = self.pool["sets"]
                forward = harmonic(*density_coverage(sets[a], sets[b], self.k, self.radii(a)))
                backward = harmonic(*density_coverage(sets[b], sets[a], self.k, self.radii(b)))
                value = (forward + backward) / 2.0
            self._pairs[key] = value
        return self._pairs[key]

    def inter(self, ids: list[str]) -> float:
        """Inter-d: mean pairwise metric over distinct members, 0 for a singleton."""
        if len(ids) < 2:
            return 0.0
        values = [self.pair(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
        return sum(values) / len(values)


# --- search outputs ------------------------------------------------------

def effective(intra: float, inter: float, orientation: str) -> tuple[float, float]:
    """Objectives as (maximize, minimize); a lower-is-better metric flips both."""
    return (intra, inter) if orientation == "higher" else (-intra, -inter)


def dominates(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return a[0] >= b[0] and a[1] <= b[1] and (a[0] > b[0] or a[1] < b[1])


def check_front(front_doc: dict, scatter: list, rows: int, orientation: str) -> None:
    """Front is mutually non-dominated and covers every evaluation; counts agree."""
    require(front_doc.get("orientation") == orientation,
            f"orientation {front_doc.get('orientation')!r}, expected {orientation!r}")
    front = front_doc["front"]
    require(len(front) >= 1, "front is empty")
    points = [effective(e["intra"], e["inter"], orientation) for e in front]
    for e in front:
        require(e["member_count"] == len(e["ids"]) == len(set(e["ids"])) >= 1,
                f"front entry {e['ids']} has member_count {e['member_count']}")
    for i, p in enumerate(points):
        for j, q in enumerate(points):
            require(i == j or not dominates(q, p), f"front entry {i} is dominated by entry {j}")
    require([p[0] for p in points] == sorted((p[0] for p in points), reverse=True),
            "front is not sorted by descending fidelity")
    require(len(scatter) == rows, f"scatter has {len(scatter)} rows, budget is {rows}")
    for n, (intra, inter, _, _) in enumerate(scatter):
        s = effective(intra, inter, orientation)
        require(any(p == s or dominates(p, s) for p in points),
                f"scatter row {n} is neither on nor dominated by the front")
    on_front = [row for row in scatter if row[2] == 1]
    require(len(on_front) == len(front),
            f"{len(on_front)} scatter rows flagged on_front, front has {len(front)}")
    flagged = sorted((r[0], r[1], r[3]) for r in on_front)
    listed = sorted((e["intra"], e["inter"], e["member_count"]) for e in front)
    require(flagged == listed, "on_front rows differ from the front entries")


def best_entry(front_doc: dict, order: list[str], tie_break: str) -> dict:
    """Front entry of maximal fidelity; ties go to fewer members, then by the rule.

    ``tie_break`` is ``"ids"`` (sorted id list, the front-file path) or
    ``"bits"`` (lexicographically smallest genome bit vector over the
    canonical order, the search path).
    """
    sign = 1.0 if front_doc["orientation"] == "higher" else -1.0
    position = {gid: i for i, gid in enumerate(order)}

    def key(e):
        if tie_break == "ids":
            last = sorted(e["ids"])
        else:
            members = {position[g] for g in e["ids"]}
            last = tuple(1 if i in members else 0 for i in range(len(order)))
        return (-sign * e["intra"], e["member_count"], last)

    return min(front_doc["front"], key=key)


def check_quotas(quotas: dict, order: list[str], total: int) -> None:
    """Quotas sum to total, differ by at most one, remainder to the earliest in canonical order."""
    chosen = [g for g in order if g in quotas]
    require(len(chosen) == len(quotas), f"quota ids {sorted(quotas)} not all in the pool")
    require(sum(quotas.values()) == total,
            f"quotas sum to {sum(quotas.values())}, total is {total}")
    base, extra = divmod(total, len(chosen))
    want = {g: base + (1 if i < extra else 0) for i, g in enumerate(chosen)}
    require(quotas == want, f"quotas {quotas} differ from the canonical-order plan {want}")


def check_selection(sel: dict, front_doc: dict, order: list[str], total: int,
                    tie_break: str) -> dict:
    """Selection is the front's best entry and carries the documented quotas."""
    best = best_entry(front_doc, order, tie_break)
    require(sorted(sel["chosen"]) == sorted(best["ids"]),
            f"chose {sorted(sel['chosen'])}, the front's best entry is {sorted(best['ids'])}")
    obj = sel["objectives"]
    require((obj["intra"], obj["inter"], obj["member_count"])
            == (best["intra"], best["inter"], best["member_count"]),
            "selection objectives differ from the chosen front entry")
    require(sel["front_size"] == len(front_doc["front"]), "front_size differs from the front")
    require(sel["total"] == total, f"total {sel['total']}, expected {total}")
    require(sorted(sel["quotas"]) == sorted(sel["chosen"]), "quota ids differ from chosen ids")
    check_quotas(sel["quotas"], order, total)
    return best


def check_union(union: np.ndarray, quotas: dict, sets: dict) -> None:
    """Each member contributes exactly its quota of rows, each bit-equal to a row of its file."""
    require(union.shape[0] == sum(quotas.values()),
            f"union has {union.shape[0]} rows, quotas sum to {sum(quotas.values())}")
    owner: dict[bytes, str] = {}
    for gid in quotas:
        for row in np.ascontiguousarray(sets[gid]):
            key = row.tobytes()
            require(owner.get(key, gid) == gid, f"a row is shared by {owner.get(key)} and {gid}")
            owner[key] = gid
    counts = dict.fromkeys(quotas, 0)
    for n, row in enumerate(np.ascontiguousarray(union)):
        gid = owner.get(row.tobytes())
        require(gid is not None, f"union row {n} is not a row of any chosen generator")
        counts[gid] += 1
    require(counts == quotas, f"union rows per generator {counts} differ from quotas {quotas}")


def check_mode_recovery(best: dict, coverage: float, floor: float) -> None:
    """Criterion 4 on the fixture: the off-manifold E stays out and the union
    covers the real modes. (Its A/C duplicate guard fails on some toy seeds;
    see the README.)"""
    require("E" not in best["ids"], "off-manifold generator E was selected")
    require(coverage >= floor, f"coverage of the selected union {coverage:.4f} is below {floor}")
