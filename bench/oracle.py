"""Correctness oracle for benchmark outputs, independent of ``pmcperturb``.

It reads the v1 model file as plain JSON, builds the transition matrix
with numpy, and recomputes what the program reports:

* the reachability solution ``t`` and visit weights ``s`` with
  ``numpy.linalg.solve`` on ``I - A`` over the constraint states that can
  reach the destination, hence the probability, every coefficient vector
  ``h`` and every condition number ``kappa``;
* for each validation sample, the exact delta by re-solving the perturbed
  chain, the achieved distances, the first-order bound, and the rule
  ``exceeds = |exact| > bound`` behind ``violations``;
* closed forms where the family has one: the gambler's-ruin probability of
  the birth-death chain and the success probability of the probing protocol.

Every check has a name; a failed check is reported as ``(name, detail)``.
Nothing here imports the program.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

#: Absolute tolerance on probabilities and exact deltas.
ABS_TOL = 1e-9
#: Relative tolerance on coefficients, which for long chains are large.
REL_TOL = 1e-7
#: Tolerance on quantities the program derives by plain arithmetic.
ARITH_TOL = 1e-12


@dataclass
class Parameter:
    id: str
    row: int
    support: np.ndarray  # 1-based columns
    reference: np.ndarray


@dataclass
class Model:
    n: int
    matrix: np.ndarray  # transition matrix at the references
    initial: np.ndarray
    parameters: list[Parameter]
    constraint: list[int]  # 1-based, destination states removed
    destination: list[int]


def load_model(text: str) -> Model:
    doc = json.loads(text)
    if doc.get("version") != 1:
        raise ValueError(f"oracle reads model files of version 1, got {doc.get('version')!r}")
    n = doc["states"]
    matrix = np.zeros((n, n))
    parameters = []
    for index, row in enumerate(doc["rows"]):
        if "concrete" in row:
            matrix[index] = row["concrete"]
        else:
            param = Parameter(row["parameter"], index + 1,
                              np.asarray(row["support"], dtype=np.intp),
                              np.asarray(row["reference"], dtype=np.float64))
            matrix[index, param.support - 1] = param.reference
            parameters.append(param)
    destination = sorted(set(doc["problem"]["destination"]))
    constraint = sorted(set(doc["problem"]["constraint"]) - set(destination))
    return Model(n, matrix, np.asarray(doc["initial"], dtype=np.float64), parameters,
                 constraint, destination)


def _reaching(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Constraint states with a path in the ``A``-graph to a state with ``b > 0``.

    Breadth-first from the states with ``b > 0``; each level looks only at
    the columns of the states it has just added.
    """
    mask = b > 0.0
    frontier = mask
    while frontier.any():
        frontier = (a[:, frontier] > 0.0).any(axis=1) & ~mask
        mask = mask | frontier
    return mask


@dataclass
class Solution:
    probability: float
    t: np.ndarray  # per constraint state
    s: np.ndarray  # expected visits per constraint state from the initial distribution


def solve(model: Model, matrix: np.ndarray | None = None, visits: bool = False) -> Solution:
    """Constrained reachability of ``matrix`` (default: the reference matrix)."""
    matrix = model.matrix if matrix is None else matrix
    cons = np.asarray(model.constraint, dtype=np.intp) - 1
    dest = np.asarray(model.destination, dtype=np.intp) - 1
    a = matrix[np.ix_(cons, cons)]
    b = matrix[np.ix_(cons, dest)].sum(axis=1)
    mask = _reaching(a, b)
    i_minus_a = np.eye(int(mask.sum())) - a[np.ix_(mask, mask)]
    t = np.zeros(cons.size)
    t[mask] = np.linalg.solve(i_minus_a, b[mask])
    s = np.zeros(cons.size)
    if visits:
        s[mask] = np.linalg.solve(i_minus_a.T, model.initial[cons][mask])
    probability = float(model.initial[cons] @ t + model.initial[dest].sum())
    return Solution(probability, t, s)


def coefficients(model: Model, sol: Solution) -> dict[str, np.ndarray]:
    """``h`` per parameter: ``s[m] t[c]`` into constraint column ``c``, ``s[m]``
    into the destination, 0 elsewhere or if row ``m`` is not a constraint state."""
    position = {state: k for k, state in enumerate(model.constraint)}
    destination = set(model.destination)
    h = {}
    for p in model.parameters:
        coeff = np.zeros(p.support.size)
        if p.row in position:
            visits = sol.s[position[p.row]]
            for j, col in enumerate(p.support):
                if col in position:
                    coeff[j] = visits * sol.t[position[col]]
                elif col in destination:
                    coeff[j] = visits
        h[p.id] = coeff
    return h


def kappa(h: np.ndarray) -> float:
    return float(0.5 * (h.max() - h.min()))


def gamblers_ruin(model: Model) -> float:
    """Probability that the birth-death chain reaches state ``n`` before state 1."""
    m = model.matrix
    n = model.n
    ratio = np.array([m[i, i - 1] / m[i, i + 1] for i in range(1, n - 1)])
    # weights[k] = prod_{j < k} ratio[j]: the gap between reach(k + 2) and reach(k + 1)
    weights = np.concatenate(([1.0], np.cumprod(ratio)))
    reach = np.concatenate(([0.0], np.cumsum(weights))) / weights.sum()
    return float(model.initial @ reach)


def probing_success(model: Model) -> float:
    """Success probability of the probing protocol: ``(1 - a) / (1 - a (1 - L))``
    with ``L`` the probability that every probe is lost."""
    a = model.matrix[0, 1]
    lost = math.prod(model.matrix[p.row - 1, p.support[1] - 1] for p in model.parameters)
    return float((1.0 - a) / (1.0 - a * (1.0 - lost)))


CLOSED_FORMS = {"chain-sensitivity": gamblers_ruin, "probe-validate": probing_success}


def _close(x: float, y: float, rel: float = 0.0, abs_: float = ABS_TOL) -> bool:
    return math.isclose(x, y, rel_tol=rel, abs_tol=abs_)


class Oracle:
    """Checks the outputs of one workload on one model file."""

    def __init__(self, workload: str, model_text: str):
        self.workload = workload
        self.model = load_model(model_text)
        self.reference = solve(self.model, visits=True)
        self.h = coefficients(self.model, self.reference)
        self.kappa = {pid: kappa(h) for pid, h in self.h.items()}

    def check_model(self) -> list[tuple[str, str]]:
        """Closed-form probability against the oracle's own solve."""
        closed = CLOSED_FORMS.get(self.workload)
        if closed is None:
            return []
        value = closed(self.model)
        if not _close(value, self.reference.probability):
            return [("closed_form", f"closed form {value!r} vs solve "
                                    f"{self.reference.probability!r}")]
        return []

    def check(self, code: int, text: str, argv: list[str]) -> list[tuple[str, str]]:
        """Failed checks of one operation's exit code and output."""
        if code != 0:
            return [("exit_code", f"exit code {code}")]
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            return [("json", str(exc))]
        fails: list[tuple[str, str]] = []
        problem = {"constraint": self.model.constraint, "destination": self.model.destination}
        if record.get("problem") != problem:
            fails.append(("problem", f"{record.get('problem')!r}"))
        try:
            if argv[0] == "sensitivity":
                self._sensitivity(record, fails)
            else:
                self._validation(record, argv, fails)
        except (KeyError, TypeError, ValueError) as exc:
            fails.append(("schema", f"{type(exc).__name__}: {exc}"))
        return fails

    def _sensitivity(self, record: dict, fails: list) -> None:
        if not _close(record["probability"], self.reference.probability):
            fails.append(("probability", f"{record['probability']!r} vs "
                                         f"{self.reference.probability!r}"))
        ids = [p["id"] for p in record["parameters"]]
        if ids != [p.id for p in self.model.parameters]:
            fails.append(("parameters", f"ids {ids}"))
            return
        for entry in record["parameters"]:
            pid, h = entry["id"], np.asarray(entry["h"], dtype=np.float64)
            want = self.h[pid]
            if h.shape != want.shape or not np.allclose(h, want, rtol=REL_TOL, atol=ABS_TOL):
                fails.append(("h", f"{pid}: max error {np.max(np.abs(h - want)):.3e}"
                              if h.shape == want.shape else f"{pid}: shape {h.shape}"))
            if not _close(entry["kappa"], self.kappa[pid], REL_TOL):
                fails.append(("kappa", f"{pid}: {entry['kappa']!r} vs {self.kappa[pid]!r}"))
        kappa_sum = sum(self.kappa.values())
        if not _close(record["kappa_sum"], kappa_sum, REL_TOL):
            fails.append(("kappa_sum", f"{record['kappa_sum']!r} vs {kappa_sum!r}"))
        weights = record["direction"]
        if set(weights) != set(self.kappa) or \
                not _close(sum(weights.values()), 1.0, abs_=ARITH_TOL):
            fails.append(("direction", f"{weights!r}"))
        else:
            kappa_w = sum(w * self.kappa[pid] for pid, w in weights.items())
            if not _close(record["kappa_directional"], kappa_w, REL_TOL):
                fails.append(("kappa_directional",
                              f"{record['kappa_directional']!r} vs {kappa_w!r}"))

    def _validation(self, record: dict, argv: list[str], fails: list) -> None:
        delta = float(argv[argv.index("--delta") + 1])
        n_samples = int(argv[argv.index("--samples") + 1])
        seed = int(argv[argv.index("--seed") + 1])
        model = self.model
        if record["seed"] != seed:
            fails.append(("seed", f"{record['seed']!r} vs {seed}"))
        requested_bound = sum(k * delta for k in self.kappa.values())
        for name, got, want in (
                ("bound", record["bound"], requested_bound),
                ("kappa_sum", record["kappa_sum"], sum(self.kappa.values())),
                ("analytic_kappa", record["analytic_kappa"],
                 requested_bound / (delta * len(self.kappa)))):
            if not _close(got, want, REL_TOL):
                fails.append((name, f"{got!r} vs {want!r}"))
        samples = record["samples"]
        randoms = sum(1 for s in samples if s["label"] == "random")
        if randoms != n_samples:
            fails.append(("sample_count", f"{randoms} random samples, requested {n_samples}"))

        violations, empirical, max_excess = 0, 0.0, 0.0
        for k, sample in enumerate(samples):
            matrix = model.matrix.copy()
            distances = {}
            linear = 0.0
            for p in model.parameters:
                v = np.asarray(sample["assignment"][p.id], dtype=np.float64)
                if v.shape != p.reference.shape or v.min() < -ARITH_TOL or \
                        not _close(v.sum(), 1.0, abs_=ARITH_TOL):
                    fails.append(("simplex", f"sample {k} parameter {p.id}"))
                    break
                matrix[p.row - 1, p.support - 1] = v
                distances[p.id] = float(np.abs(v - p.reference).sum())
                linear += float(self.h[p.id] @ (v - p.reference))
                if distances[p.id] > delta + ARITH_TOL:
                    fails.append(("distance_cap", f"sample {k} parameter {p.id}: "
                                                  f"{distances[p.id]!r} > {delta}"))
            else:
                exact = solve(model, matrix).probability - self.reference.probability
                bound = sum(self.kappa[pid] * d for pid, d in distances.items())
                total = sum(distances.values())
                for name, got, want, rel in (
                        ("exact", sample["exact"], exact, 0.0),
                        ("distance", sample["distance"], total, 0.0),
                        ("linear", sample["linear"], linear, REL_TOL),
                        ("sample_bound", sample["bound"], bound, REL_TOL)):
                    if not _close(got, want, rel, ABS_TOL if name == "exact" else ARITH_TOL):
                        fails.append((name, f"sample {k}: {got!r} vs {want!r}"))
                if any(not _close(sample["distances"][pid], d, abs_=ARITH_TOL)
                       for pid, d in distances.items()):
                    fails.append(("distances", f"sample {k}"))
            if sample["exceeds"] != (abs(sample["exact"]) > sample["bound"]):
                fails.append(("exceeds_rule", f"sample {k}: exceeds={sample['exceeds']} with "
                                              f"|exact|={abs(sample['exact'])!r}, "
                                              f"bound={sample['bound']!r}"))
            if sample["exceeds"]:
                violations += 1
                max_excess = max(max_excess, abs(sample["exact"]) - sample["bound"])
            if sample["distance"] > 0.0:
                empirical = max(empirical, abs(sample["exact"]) / sample["distance"])
        for name, got, want in (("violations", record["violations"], violations),
                                ("max_excess", record["max_excess"], max_excess),
                                ("empirical_kappa", record["empirical_kappa"], empirical)):
            if not _close(got, want, abs_=ARITH_TOL):
                fails.append((name, f"{got!r} vs {want!r}"))


def check_paper_tables(text: str, golden_text: str) -> list[tuple[str, str]]:
    """Compare ``paper-tables --format json`` with the golden file.

    Numbers must agree to 1e-12 relative; ``model_hash`` fields are skipped
    because their definition is expected to change.
    """
    fails: list[tuple[str, str]] = []

    def walk(got, want, path):
        if isinstance(want, dict):
            if not isinstance(got, dict) or set(got) != set(want):
                fails.append(("paper_tables", f"{path}: keys differ"))
                return
            for key in want:
                if key != "model_hash":
                    walk(got[key], want[key], f"{path}.{key}")
        elif isinstance(want, list):
            if not isinstance(got, list) or len(got) != len(want):
                fails.append(("paper_tables", f"{path}: length differs"))
                return
            for k, (g, w) in enumerate(zip(got, want)):
                walk(g, w, f"{path}[{k}]")
        elif isinstance(want, float) and not isinstance(got, bool) \
                and isinstance(got, (int, float)):
            if not math.isclose(got, want, rel_tol=ARITH_TOL, abs_tol=1e-15):
                fails.append(("paper_tables", f"{path}: {got!r} vs {want!r}"))
        elif got != want:
            fails.append(("paper_tables", f"{path}: {got!r} vs {want!r}"))

    try:
        walk(json.loads(text), json.loads(golden_text), "$")
    except json.JSONDecodeError as exc:
        fails.append(("paper_tables", f"not JSON: {exc}"))
    return fails
