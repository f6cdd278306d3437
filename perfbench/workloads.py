"""The three workloads: liftspin CLI invocations with their known answers.

The seed changes only what leaves the work unchanged: `k` in the symbolic
tasks (drawn from K_POOL, where every output has the same byte count) and
the order of tasks in each round.  The (identity, n, weight) list of each
workload is fixed.  `k` stays 10 in `expand`, because the expanded output
prints q-exponents whose digit count grows with k, and `s` stays 25 in
`lvalue`, because the printed floats change length with s.
"""

from __future__ import annotations

import os
import random

import checks

NAMES = ("symbolic", "numeric", "expand")

# symbolic k values with identical output sizes for every symbolic task
K_POOL = tuple(range(16, 33))

# an untraced run makes at least this many rounds: with 11 or more, the
# task_s_tail sample (10 samples beyond it) stays among the slowest symbolic
# task (negative controls at n = 6) instead of jumping between task kinds
MIN_ROUNDS = {"symbolic": 12}

NUMERIC_PRIMES = 199
LVALUE_PRIMES = 100


def _verify(argv, count=1, **expect):
    spec = {"kind": "verdicts", "verdict": "pass", "count": count}
    spec.update(expect)
    return {"argv": argv, "check": spec}


def _symbolic(rng):
    def k():
        return rng.choice(K_POOL)

    tasks = [_verify(["verify", "--all", "--symbolic"], count=43, suite=True)]
    for n in range(2, 7):
        kk = k()
        tasks.append(_verify(["verify", "--identity", "main_theorem", "--n", str(n),
                              "--k", str(kk)], identity="main_theorem", n=n, k=kk))
    for n in range(1, 5):
        kk = k()
        tasks.append(_verify(["verify", "--identity", "ikeda_spinor", "--n", str(n),
                              "--k", str(kk)], identity="ikeda_spinor", n=n, k=kk))
    for identity in ("ikeda_standard", "miyawaki_standard", "c1_frobenius"):
        kk = k()
        tasks.append(_verify(["verify", "--identity", identity, "--n", "6", "--k", str(kk)],
                             identity=identity, n=6, k=kk))
    for n in (2, 6):
        kk = k()
        tasks.append(_verify(["verify", "--negative-control", "--witness", "--n", str(n),
                              "--k", str(kk)], count=3, verdict="fail", witness=True,
                             identity="main_theorem", n=n, k=kk))
    for identity, family, n, degree in (("main_theorem", "miyawaki", 6, 2048),
                                        ("ikeda_spinor", "ikeda", 4, 256)):
        kk = k()
        tasks.append({"argv": ["euler", "--identity", identity, "--side", "lhs", "--n", str(n),
                               "--k", str(kk), "--factored"],
                      "check": {"kind": "factored", "family": family, "n": n, "k": kk,
                                "degree": degree}})
    tasks.append({"argv": ["beta-table", "--n", "6"], "check": {"kind": "beta_table", "n": 6}})
    return {"tasks": tasks}


def write_tables(directory, weights):
    """Eigenvalue tables '<p> <a(p)>' from the reference q-expansions, named
    relative to `directory` (the workers' working directory)."""
    names = {}
    for weight in weights:
        names[weight] = f"eigenvalues_w{weight}.txt"
        with open(os.path.join(directory, names[weight]), "w", encoding="utf-8") as fh:
            for p, value in checks.eigenvalues(weight, NUMERIC_PRIMES).items():
                fh.write(f"{p} {value}\n")
    return names


def _numeric(directory):
    tables = write_tables(directory, (12, 16, 18, 20, 26))
    primes = checks.primes_to(NUMERIC_PRIMES)
    upto = ["--mode", "numeric", "--primes-up-to", str(NUMERIC_PRIMES)]

    def main_theorem(n, k, files=()):
        argv = ["verify", "--identity", "main_theorem", "--n", str(n), "--k", str(k)] + upto
        for role, weight in files:
            argv += ["--eigenvalues-file", f"{role}={tables[weight]}"]
        return _verify(argv, count=len(primes), primes=primes, identity="main_theorem",
                       n=n, k=k)

    def ikeda_standard(files=()):
        argv = ["verify", "--identity", "ikeda_standard", "--n", "6", "--k", "10"] + upto
        for role, weight in files:
            argv += ["--eigenvalues-file", f"{role}={tables[weight]}"]
        return _verify(argv, count=len(primes), primes=primes, identity="ikeda_standard",
                       n=6, k=10)

    tasks = [main_theorem(2, 10), main_theorem(3, 9), main_theorem(3, 13), ikeda_standard()]
    tasks += [{"argv": ["lvalue", "--side", side, "--n", "2", "--k", "10", "--s", "25",
                        "--primes-up-to", str(LVALUE_PRIMES)],
               "check": {"kind": "lvalue", "primes_up_to": LVALUE_PRIMES}}
              for side in ("lhs", "rhs")]
    tasks.append({"argv": ["eigenvalues", "--weight", "12", "--primes-up-to",
                           str(NUMERIC_PRIMES)],
                  "check": {"kind": "eigenvalues", "weight": 12,
                            "primes_up_to": NUMERIC_PRIMES}})
    # the same per-prime path fed from tables instead of q-expansions
    tasks += [main_theorem(2, 10, (("f", 20), ("g", 12))),
              main_theorem(3, 9, (("f", 18), ("g", 12))),
              main_theorem(3, 13, (("f", 26), ("g", 16))),
              ikeda_standard((("f", 20),))]
    # weight-12 data as f and weight-20 data as g: must be refused
    swapped = ["verify", "--identity", "main_theorem", "--n", "2", "--k", "10",
               "--mode", "numeric", "--eigenvalues-file", f"f={tables[12]}",
               "--eigenvalues-file", f"g={tables[20]}"]
    probes = [{"argv": swapped + ["--prime", "2"], "check": {"kind": "rejected"}},
              {"argv": swapped + ["--primes-up-to", str(NUMERIC_PRIMES)],
               "check": {"kind": "rejected"}}]
    lvalues = [t for t in tasks if t["argv"][0] == "lvalue"]
    return {"tasks": tasks, "probes": probes,
            "same_value": [tuple(tuple(t["argv"]) for t in lvalues)]}


def _expand(rng):
    point = [rng.randrange(2, checks.MOD_PRIME - 1) for _ in range(4)]
    tasks = []
    for identity, side, family, degree in (("main_theorem", "lhs", "miyawaki", 32),
                                           ("main_theorem", "rhs", "miyawaki", 32),
                                           ("ikeda_spinor", "lhs", "ikeda", 64)):
        argv = ["euler", "--identity", identity, "--side", side, "--n", "3", "--k", "10"]
        # the root list the expansion is checked against, run outside the rounds
        reference = {"argv": argv + ["--factored"],
                     "check": {"kind": "factored", "family": family, "n": 3, "k": 10,
                               "degree": degree}}
        tasks.append({"argv": argv, "reference": reference,
                      "check": {"kind": "expanded", "degree": degree, "point": point,
                                "roots": None}})
    return {"tasks": tasks,
            "same_bytes": [(tuple(tasks[0]["argv"]), tuple(tasks[1]["argv"]))]}


def build(name, seed, directory):
    """Tasks of one workload for one seed; files it needs go in `directory`."""
    rng = random.Random(f"{name}:{seed}")
    if name == "symbolic":
        spec = _symbolic(rng)
    elif name == "numeric":
        spec = _numeric(directory)
    else:
        spec = _expand(rng)
    spec.update(rng=rng, seed=seed, min_rounds=MIN_ROUNDS.get(name, 1))
    return spec
