"""Record the parse corpus of tests/test_network.py: seeded edits of three
network texts and the outcome of parsing each.

    PYTHONPATH=src python3 tests/fixtures/make_parse_corpus.py

writes tests/fixtures/parse_corpus.json with the parser on PYTHONPATH.  The
committed corpus was recorded with the parser that read each line through a
generic table of stage-directive fields; the line-by-line parser that
replaced it must reproduce every outcome.  Each case is
``[base, hunks, outcome]``: ``hunks`` are ``[first, end, new lines]`` edits
of the base text's lines (applied last to first), ``outcome`` is "ok" or
the exact ``NetworkParseError`` text.
"""
import difflib
import json
import random
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))  # for layouts.py

from layouts import random_layout  # noqa: E402

from tsvfsim.network import (  # noqa: E402
    NetworkParseError,
    nested_mzi_preset,
    parse_network,
    serialize_network,
)

PER_BASE = 200
SPACED = """# single Mach-Zehnder, written by hand
arm src
arm A   # upper
arm B
arm\tCC
arm DD

slice 0: src
slice 1 :  A,B
slice  2:CC ,  DD
source   src
bs split stage=0 in=src out=A,B   theta=0.7853981633974483
  bs merge\tstage=1 in=A,B out=CC,DD  phase=0.25
detector bright=DD
detector   dark=CC   # the dark port
"""

BASES = {
    "preset": serialize_network(nested_mzi_preset()),
    "random": serialize_network(random_layout(8, 7, 6)),
    "spaced": SPACED,
}

VOCAB = ["=", ",", ":", "#", "x=", "=x", "stage=", "stage=-1", "stage=99", "stage=1.5",
         "stage=0", "stage=1", "in=", "out=", "in=a0,,a1", "theta=nan", "theta=1e999",
         "phase=inf", "phase=0.1", "value=", "value=1", "arm=", "arm=zz", "arm=N", "bs",
         "mirror", "phase", "pass", "arm", "slice", "source", "detector", "slice 9:",
         "a-b", "0", "-1", "P=", "=a0", "junk", "in=a0", "out=a0,a1", "theta=0.3", "#c",
         "é", "a0,", ",a0", "N", "D1", "in=N", "out=B,C", "1:", "0:", "P=N", "src",
         "in=src", "name=x", "theta=", "slice 1: A", "a0", "a1", "B", "C", "E", "F",
         "stage=2", "stage=3", "stage=4", "in=a1,a2", "out=a1", "x"]
VALUES = ["", "0", "1", "2", "-1", "99", "1.5", "nan", "inf", "-inf", "1e999", "a0", "a1",
          "a0,a1", "a0,,a1", ",", "zz", "N", "B,C", "E", "1_0", "0x1", " ", "=", "a,b,c",
          "D", "src"]
CHARS = ",=:#@-_.a0 \t9Nx"
TOKEN = re.compile(r"\S+")


def spans(line):
    return [(m.start(), m.end()) for m in TOKEN.finditer(line)]


def mutate(lines, rng):
    lines = list(lines)
    op = rng.randrange(11)
    nonblank = [i for i, l in enumerate(lines) if l.strip()]
    i = rng.choice(nonblank)
    line = lines[i]
    sp = spans(line)
    if len(sp) > 1 and rng.random() < 0.85:  # spare the directive most of the time
        sp = sp[1:]
    alltoks = [t for l in lines for t in l.split()]
    if op == 0 and len(spans(line)) >= 2:  # swap two tokens in one line
        sp = spans(line)
        a, b = sorted(rng.sample(range(len(sp)), 2))
        (s1, e1), (s2, e2) = sp[a], sp[b]
        lines[i] = line[:s1] + line[s2:e2] + line[e1:s2] + line[s1:e1] + line[e2:]
    elif op == 1:  # swap a token between two lines
        j = rng.choice(nonblank)
        if j != i:
            sj = spans(lines[j])
            (s1, e1), (s2, e2) = rng.choice(sp), rng.choice(sj)
            t1, t2 = line[s1:e1], lines[j][s2:e2]
            lines[i] = line[:s1] + t2 + line[e1:]
            lines[j] = lines[j][:s2] + t1 + lines[j][e2:]
    elif op == 2:  # insert a token
        tok = rng.choice(VOCAB + alltoks)
        at = rng.choice([s for s, _ in sp] + [len(line)])
        lines[i] = line[:at] + (" " if at == len(line) else "") + tok + ("" if at == len(line) else " ") + line[at:]
    elif op == 3:  # delete a token
        s, e = rng.choice(sp)
        lines[i] = line[:s] + line[e:].lstrip(" ")
    elif op == 4:  # delete a line
        del lines[i]
    elif op == 5:  # duplicate a line elsewhere
        lines.insert(rng.randrange(len(lines) + 1), line)
    elif op == 6:  # junk line
        toks = [rng.choice(VOCAB + alltoks) for _ in range(rng.randrange(1, 5))]
        if rng.random() < 0.6:
            toks[0] = rng.choice(["arm", "slice", "source", "bs", "mirror", "phase", "pass", "detector"])
        text = "".join(rng.choice([" ", "  ", "\t"]) + t for t in toks)
        lines.insert(rng.randrange(len(lines) + 1), text.lstrip() if rng.random() < 0.7 else text)
    elif op == 7:  # character edit
        s, e = rng.choice(sp)
        at = rng.randrange(s, e + 1)
        kind = rng.randrange(3)
        c = rng.choice(CHARS)
        if kind == 0 and at < e:
            lines[i] = line[:at] + line[at + 1:]
        elif kind == 1:
            lines[i] = line[:at] + c + line[at:]
        elif at < e:
            lines[i] = line[:at] + c + line[at + 1:]
    elif op == 8:  # move a line
        del lines[i]
        lines.insert(rng.randrange(len(lines) + 1), line)
    elif op == 9:  # replace the value of a key=value token
        kv = [(s, e) for s, e in sp if "=" in line[s:e]]
        if kv:
            s, e = rng.choice(kv)
            key = line[s:e].split("=", 1)[0]
            lines[i] = line[:s] + key + "=" + rng.choice(VALUES) + line[e:]
    else:  # replace a token by another
        s, e = rng.choice(sp)
        lines[i] = line[:s] + rng.choice(VOCAB + alltoks) + line[e:]
    return lines


def outcome(text):
    try:
        parse_network(text)
    except NetworkParseError as exc:
        return str(exc)
    return "ok"


def edits(base, lines):
    ops = difflib.SequenceMatcher(a=base, b=lines, autojunk=False).get_opcodes()
    return [[i1, i2, lines[j1:j2]] for tag, i1, i2, j1, j2 in ops if tag != "equal"]


def apply(base, hunks):
    lines = list(base)
    for i1, i2, new in reversed(hunks):
        lines[i1:i2] = new
    return lines


def main():
    cases = []
    for name, text in BASES.items():
        assert outcome(text) == "ok", name
        base = text.split("\n")
        rng = random.Random(f"parse-corpus-{name}")
        seen = set()
        while sum(c[0] == name for c in cases) < PER_BASE:
            lines = base
            for _ in range(1 if rng.random() < 0.75 else 2):
                lines = mutate(lines, rng)
            key = "\n".join(lines)
            if lines == base or key in seen:
                continue
            seen.add(key)
            hunks = edits(base, lines)
            assert apply(base, hunks) == lines
            cases.append([name, hunks, outcome(key)])
    with open(HERE / "parse_corpus.json", "w") as fh:
        fh.write('{"bases": ' + json.dumps(BASES, indent=1) + ',\n"cases": [\n')
        fh.write(",\n".join(json.dumps(c) for c in cases))
        fh.write("\n]}\n")
    print(len(cases), "cases,", sum(c[2] == "ok" for c in cases), "parse")


if __name__ == "__main__":
    main()
