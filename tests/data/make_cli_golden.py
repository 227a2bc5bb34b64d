"""Record ``cli_golden.json``: the output bytes of ``check``, ``natex``,
``ine`` and ``measurable`` on seeded model files.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_cli_golden.py > tests/data/cli_golden.json

The file holds the model files themselves (``files``, name to text) and
one case per command run (``cases``): its argument list, whose file
arguments are the names in ``files``, its exit code and its exact standard
output and standard error.  Every command runs with ``--output text`` and
with ``--output json``.

There are 24 single-space models on 3-8 outcomes, six built to be each of
coherent (lower envelopes of random pmfs, some self-conjugate), ``gap``
(an entry implied by another one with its value lowered), ``sure-loss``
(an entry above the maximum of its gamble, or two lower probabilities of
complementary events adding up to more than one) and ``beyond-support``
(an entry conditional on an event that every pmf behind the model leaves
at zero, pinned there by an entry on its indicator).  Each gets ``check``,
three ``natex`` queries (lower, ``--upper``, ``--event``) and ``measurable
--levels 8`` on a non-negative gamble.  There are 8 pairs of coherent
marginal models on 3-4 outcomes, each with ``ine`` lower, ``--upper`` and
``--event`` queries under custom or builtin families; half of the pairs
take their product-space gamble from a ``--joint`` file and half from the
left model file.  The models are written here as JSON text, with their
envelope values computed in ``Fraction``, so nothing in them comes from the
engine.
"""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction

from desirables.cli import main

KINDS = ("coherent", "gap", "sure-loss", "beyond-support")
SINGLE_MODELS = 24
INE_PAIRS = 8
LEVELS = 8


def _value(rng, span=6, den=3):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _mask(rng, n):
    mask = [rng.random() < 0.5 for _ in range(n)]
    if not any(mask):
        mask[rng.randrange(n)] = True
    return mask


def _pmf(rng, n, zeros=()):
    weights = [0 if k in zeros else rng.randint(1, 6) for k in range(n)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def _envelope(pmfs, f, mask):
    return min(
        sum(p[k] * f[k] for k in range(len(f)) if mask[k]) / sum(p[k] for k in range(len(f)) if mask[k])
        for p in pmfs
    )


class _Doc:
    """One model file under construction."""

    def __init__(self):
        self.spaces, self.gambles, self.events = [], [], []
        self.assessments, self.families = [], []

    def space(self, sid, outcomes):
        self.spaces.append({"id": sid, "outcomes": list(outcomes)})

    def gamble(self, gid, sid, outcomes, values):
        self.gambles.append({"id": gid, "space": sid, "values": {x: str(v) for x, v in zip(outcomes, values)}})
        return gid

    def event(self, eid, sid, outcomes, mask):
        self.events.append({"id": eid, "space": sid, "members": [x for x, m in zip(outcomes, mask) if m]})
        return eid

    def assess(self, gid, eid, lower, linear=False):
        self.assessments.append({"gamble": gid, "event": eid, "lower": str(lower), "linear": linear})

    def text(self):
        doc = {
            "spaces": self.spaces,
            "gambles": self.gambles,
            "events": self.events,
            "assessments": self.assessments,
            "families": self.families,
        }
        return json.dumps(doc, indent=2) + "\n"


def _entries(rng, doc, sid, outcomes, pmfs, count, linear=False, events=None):
    """``count`` envelope entries of the pmfs; conditioning events are drawn
    from ``events`` (masks) when given.  Returns (gamble, mask, lower)."""
    n = len(outcomes)
    made = []
    for k in range(count):
        f = [_value(rng) for _ in range(n)]
        if k and rng.random() < 0.5:
            mask = rng.choice(events) if events else _mask(rng, n)
        else:
            mask = [True] * n
        lower = _envelope(pmfs, f, mask)
        gid = doc.gamble(f"g{k}", sid, outcomes, f)
        eid = "ALL" if all(mask) else doc.event(f"b{k}", sid, outcomes, mask)
        doc.assess(gid, eid, lower, linear)
        made.append((f, mask, lower))
    return made


def _family(rng, doc, sid, outcomes):
    """A custom family "fam" of 1-3 declared events; returns their masks."""
    masks = [_mask(rng, len(outcomes)) for _ in range(rng.randint(1, 3))]
    ids = [doc.event(f"fe{k}", sid, outcomes, mask) for k, mask in enumerate(masks)]
    doc.families.append({"id": "fam", "space": sid, "kind": "custom", "events": ids})
    return masks


def single_model(index):
    """The model text of one single-space model, and the family of its
    ``measurable`` query."""
    rng = random.Random(f"cli-golden:{index}")
    kind = KINDS[index % len(KINDS)]
    n = 3 + (index // len(KINDS)) % 6
    sid = "X"
    outcomes = [f"x{k}" for k in range(1, n + 1)]
    doc = _Doc()
    doc.space(sid, outcomes)
    zeros = ()
    if kind == "beyond-support":
        zeros = tuple(rng.sample(range(n), rng.randint(1, n - 1)))
    linear = kind == "coherent" and rng.random() < 0.34
    pmfs = [_pmf(rng, n, zeros) for _ in range(1 if linear else rng.randint(2, 3))]
    reachable = [m for m in (_mask(rng, n) for _ in range(4)) if any(m[k] for k in range(n) if k not in zeros)]
    made = _entries(rng, doc, sid, outcomes, pmfs, rng.randint(2, 5), linear, reachable or None)
    if kind == "gap":
        # An entry implied by an earlier one, f + c given B at v + c, with
        # its value lowered: its natural extension is v + c.
        f, mask, lower = rng.choice(made)
        c = _value(rng)
        gid = doc.gamble("gw", sid, outcomes, [v + c for v in f])
        eid = "ALL" if all(mask) else doc.event("bw", sid, outcomes, mask)
        doc.assess(gid, eid, lower + c - Fraction(rng.randint(1, 4), rng.randint(1, 3)))
    elif kind == "sure-loss":
        if rng.random() < 0.5:
            f = [_value(rng) for _ in range(n)]
            gid = doc.gamble("gw", sid, outcomes, f)
            doc.assess(gid, "ALL", max(f) + Fraction(rng.randint(1, 3), rng.randint(1, 3)))
        else:
            mask = _mask(rng, n)
            mask[rng.randrange(n)] = False
            inside = doc.gamble("ia", sid, outcomes, [int(m) for m in mask])
            outside = doc.gamble("ib", sid, outcomes, [1 - int(m) for m in mask])
            share = Fraction(rng.randint(1, 5), 6)
            doc.assess(inside, "ALL", share)
            doc.assess(outside, "ALL", 1 - share + Fraction(1, rng.randint(7, 12)))
    elif kind == "beyond-support":
        # Upper probability of the zero block is 0, and an entry conditions on it.
        zero_mask = [k in zeros for k in range(n)]
        gid = doc.gamble("nz", sid, outcomes, [-int(m) for m in zero_mask])
        doc.assess(gid, "ALL", 0)
        inner = [m and rng.random() < 0.7 for m in zero_mask]
        if not any(inner):
            inner = zero_mask
        f = [_value(rng) for _ in range(n)]
        gid = doc.gamble("gz", sid, outcomes, f)
        doc.assess(gid, doc.event("bz", sid, outcomes, inner), _value(rng))
    doc.gamble("f0", sid, outcomes, [_value(rng) for _ in range(n)])
    doc.gamble("f1", sid, outcomes, [_value(rng, 9, 4) for _ in range(n)])
    query_mask = rng.choice(reachable) if reachable else [True] * n
    doc.event("q", sid, outcomes, query_mask)
    family = _family(rng, doc, sid, outcomes)
    if rng.random() < 0.5:
        # Measurable by construction: a constant plus multiples of family indicators.
        m = [Fraction(rng.randint(0, 3), rng.randint(1, 2))] * n
        for _ in range(2):
            event = rng.choice(family)
            c = Fraction(rng.randint(0, 3), rng.randint(1, 2))
            m = [v + c * int(inside) for v, inside in zip(m, event)]
    else:
        m = [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(n)]
    doc.gamble("m", sid, outcomes, m)
    measurable_family = rng.choice(["fam", "fam", "atoms", "all", "empty"])
    return doc.text(), measurable_family


def ine_pair(index):
    """Left and right model texts of one INE pair, the joint file text (or
    None when the left file declares the product-space gamble), and the
    families."""
    rng = random.Random(f"cli-golden-ine:{index}")
    docs, families = [], []
    spaces = []
    for sid, prefix in (("A", "a"), ("B", "b")):
        n = rng.randint(3, 4)
        outcomes = [f"{prefix}{k}" for k in range(1, n + 1)]
        doc = _Doc()
        doc.space(sid, outcomes)
        pmfs = [_pmf(rng, n) for _ in range(rng.randint(2, 3))]
        _entries(rng, doc, sid, outcomes, pmfs, rng.randint(1, 3))
        _family(rng, doc, sid, outcomes)
        docs.append(doc)
        spaces.append(outcomes)
        families.append(rng.choice(["fam", "fam", "atoms", "all", "empty"]))
    product = [f"{a}|{b}" for a in spaces[0] for b in spaces[1]]
    embed = index % 2 == 0
    holder = docs[0] if embed else _Doc()
    holder.space("P", product)
    holder.gamble("jf", "P", product, [_value(rng) for _ in product])
    holder.event("je", "P", product, _mask(rng, len(product)))
    joint = None if embed else holder.text()
    return docs[0].text(), docs[1].text(), joint, families


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def commands(files_dir):
    """The golden's files and argument lists; model files are written to
    ``files_dir`` so that the commands can read them."""
    files, argvs = {}, []
    for i in range(SINGLE_MODELS):
        text, family = single_model(i)
        name = f"model{i:02d}.json"
        files[name] = text
        argvs += [
            ["check", "--model", name],
            ["natex", "--model", name, "--gamble", "f0"],
            ["natex", "--model", name, "--gamble", "f1", "--upper"],
            ["natex", "--model", name, "--gamble", "f0", "--event", "q"],
            ["measurable", "--model", name, "--gamble", "m", "--family", family, "--levels", str(LEVELS)],
        ]
    for i in range(INE_PAIRS):
        left, right, joint, (family1, family2) = ine_pair(i)
        names = f"left{i}.json", f"right{i}.json", f"joint{i}.json"
        files[names[0]], files[names[1]] = left, right
        base = ["ine", "--model", names[0], "--model2", names[1], "--family1", family1, "--family2", family2]
        if joint is not None:
            files[names[2]] = joint
            base += ["--joint", names[2]]
        argvs += [
            base + ["--gamble", "jf"],
            base + ["--gamble", "jf", "--upper"],
            base + ["--gamble", "jf", "--event", "je"],
        ]
    for name, text in files.items():
        with open(f"{files_dir}/{name}", "w", encoding="utf-8") as handle:
            handle.write(text)
    return files, [argv + ["--output", output] for argv in argvs for output in ("text", "json")]


def with_paths(argv, files_dir, files):
    return [f"{files_dir}/{a}" if a in files else a for a in argv]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        files, argvs = commands(workdir)
        cases = []
        for argv in argvs:
            case = run(with_paths(argv, workdir, files))
            case["argv"] = argv
            cases.append(case)
    sys.stdout.write(json.dumps({"files": files, "cases": cases}, indent=1) + "\n")
