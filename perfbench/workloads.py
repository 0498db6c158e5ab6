"""The benchmark's workloads: set-up, CLI command lists and output checks.

Each workload is a closed loop of one client: the next command is issued
only when the previous one has returned.  A seed fixes the command order
and, for ``negsearch-modp``, the extra series probes.  Every expected value
carries its source: ``paper`` for values stated in the source paper,
``seed-output`` for values the engine printed at the commit that introduced
this benchmark (where the paper states none), ``theorem`` for an inequality
that must hold whatever the values.
"""

import hashlib
import json
import random
from dataclasses import dataclass, field

# The search runs past the degree-144 curve, the last class of the paper's
# ledger, but stops short of the paper's degree 200: the candidates above
# 170 cost twice as much as the whole search below it, and every run of the
# benchmark has to fit its time budget.
KLEIN_DMAX = 170
KLEIN_PROBES = 6
KLEIN_PROBE_DMAX = 120

# sha256 of the sorted-key JSON results of `invariants --preset klein
# --field exact` (the four fundamental and normalized invariants)
INVARIANTS_KLEIN_EXACT_SHA256 = (
    "2717afc20849d0b39f1f5f42962d1c51d2ed141123b5d38667e141b649f3bbd1")


@dataclass
class Command:
    """One CLI invocation and the values its report must show, by source."""

    argv: list
    paper: dict = field(default_factory=dict)
    seed: dict = field(default_factory=dict)      # seed-output
    theorem: dict = field(default_factory=dict)
    view: object = None       # results -> dict compared with the expectations

    def check(self, results):
        """Mismatches between the report and the expected values."""
        got = self.view(results) if self.view else results
        return {k: {"expected": v, "got": got.get(k), "source": source}
                for source, expect in (("paper", self.paper),
                                       ("seed-output", self.seed),
                                       ("theorem", self.theorem))
                for k, v in expect.items() if got.get(k) != v}


@dataclass
class Workload:
    name: str
    setup: object             # builds every configuration the commands use
    commands: list
    probes: object = None     # rng -> extra commands

    def plan(self, seed):
        """The commands of one pass, in the order the seed fixes.  Probes come
        after the fixed commands, so that the caches they fill cannot change
        how much work the fixed commands do."""
        rng = random.Random(seed)
        cmds = list(self.commands)
        rng.shuffle(cmds)
        if self.probes is not None:
            probes = self.probes(rng)
            rng.shuffle(probes)
            cmds += probes
        return cmds


def _digest(results):
    text = json.dumps(results, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _dim_at_least_edim(results):
    return {"dim>=edim": results["dim"] >= results["edim"]}


def _klein_probes(rng):
    """Series probes over F4733 at candidates of the Klein search: an even
    degree d <= KLEIN_PROBE_DMAX, a triple-point multiplicity m3 <= d/4, and
    the least m4 that makes the class negative (d^2 - 21 m4^2 - 28 m3^2 < 0).
    """
    out = []
    for _ in range(KLEIN_PROBES):
        d = rng.randrange(4, KLEIN_PROBE_DMAX + 1, 2)
        m3 = rng.randint(0, d // 4)
        m4 = 0
        while d * d - 21 * m4 * m4 - 28 * m3 * m3 >= 0:
            m4 += 1
        out.append(Command(
            ["series", "--preset", "klein", "--field", "mod4733", "--d", str(d),
             "--m4", str(m4), "--m3", str(m3)],
            theorem={"dim>=edim": True}, view=_dim_at_least_edim))
    return out


def _invariants_view(results):
    return {"phi4": results["fundamental"]["4"], "digest": _digest(results)}


def _class_counts(results):
    return {"num_lines": results["num_lines"],
            "points": {c["label"]: [c["multiplicity"], c["size"]]
                       for c in results["classes"]},
            "verified": results["verification"]["ok"]}


def _setup_negsearch():
    from kleinwiman.configs import build_config
    from kleinwiman.fields import WIMAN_PRIME, preset_field

    build_config("klein", preset_field("klein-mod4733"))
    build_config("wiman", preset_field("modp", WIMAN_PRIME))


def _setup_char7():
    from kleinwiman.configs import build_config
    from kleinwiman.fields import preset_field

    preset_field("klein-mod7")
    build_config("klein-char7")


def _setup_exact():
    from kleinwiman.configs import build_config
    from kleinwiman.fields import preset_field

    build_config("klein", preset_field("klein-exact"))


WORKLOADS = {w.name: w for w in [
    Workload(
        "negsearch-modp", _setup_negsearch,
        [
            Command(["negsearch", "--preset", "klein", "--dmax", str(KLEIN_DMAX)],
                    paper={"ledger": ["21H - 4E4 - 3E3", "18H - 4E4",
                                      "42H - 8E3", "144H - 4E4 - 27E3"]},
                    seed={"candidates_tried": 80}),
            Command(["negsearch", "--preset", "wiman", "--dmax", "90"],
                    seed={"ledger": ["45H - 5E5 - 4E4 - 3E3", "12H - 2E4",
                                     "60H - 5E5 - 8E4", "60H - 9E5 - 4E4",
                                     "60H - 10E5 - 1E4", "72H - 10E5 - 6E4",
                                     "90H - 4E4 - 8E3"],
                          "candidates_tried": 139}),
            Command(["series", "--preset", "wiman", "--d", "90", "--m4", "4",
                     "--m3", "8"], paper={"dim": 1, "edim": 0}),
            Command(["waldschmidt", "--preset", "klein", "--curve-only"],
                    paper={"lower": "58/9", "upper": "13/2"}),
            Command(["waldschmidt", "--preset", "wiman"],
                    paper={"lower": "27/2", "upper": "27/2", "exact": "27/2"}),
        ],
        probes=_klein_probes),
    Workload(
        "char7-alpha", _setup_char7,
        [
            Command(["fatideal", "alpha", "--preset", "klein-char7", "--m", "6"],
                    seed={"alpha": 42}),
            Command(["fatideal", "generators", "--preset", "klein-char7",
                     "--depth", "13"],
                    paper={"alpha": 8, "omega": 9},
                    seed={"generators_by_degree": {"8": 3, "9": 1}}),
            Command(["fatideal", "contain", "--preset", "klein-char7", "--m", "2",
                     "--r", "3", "--dmax", "20"],
                    paper={"witness_degree": 16, "contained_degreewise": False},
                    seed={"alpha_symbolic": 16}),
        ]),
    Workload(
        "exact-fields", _setup_exact,
        [
            Command(["config", "show", "--preset", "klein", "--verify"],
                    paper={"num_lines": 21,
                           "points": {"E4": [4, 21], "E3": [3, 28]}},
                    theorem={"verified": True}, view=_class_counts),
            Command(["invariants", "--preset", "klein", "--field", "exact"],
                    paper={"phi4": "x^3*y + x*z^3 + y^3*z"},
                    seed={"digest": INVARIANTS_KLEIN_EXACT_SHA256},
                    view=_invariants_view),
            Command(["fatideal", "generators", "--preset", "klein", "--field",
                     "exact", "--depth", "9"],
                    paper={"generators_by_degree": {"8": 3}, "alpha": 8,
                           "omega": 8}),
        ]),
]}
