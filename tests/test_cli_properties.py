"""Random short text in every argument of every subcommand form ends in a
defined exit code: 0 for an answer, 2 for a usage, parse or input error, 3
for an internal failure; never in a traceback."""

import random
import re

from braidtiles import cli

# Pieces of every text format (braid words, tile expressions, edge words,
# graph, presentation and matrix JSON, integer options), some of them
# malformed, and characters that are not ASCII spaces or digits.
PIECES = (
    "b", "b1:", "b2:", "b3:", "b4:", ":", "s", "s1", "s2", "s3", "^-1", "^", "e",
    "F", "P", "D", "1_", "1_2", "+", ";", "(", ")",
    "g", "g1", "g2", "g3^-1",
    "[", "]", "{", "}", '"', ",", '"1"', '"1/2"', '"0"', "null", "true", "1.5",
    '"points"', '"edges"', '"half_edges"', '"point"', '"side"', '"in"', '"interval"',
    '"generators"', '"relators"', '"a"',
    "0", "1", "2", "3", "12", "-1", "-", "/",
    " ", " ", "\t", "\n", "　", "٢", "x", "é",
)

# Well-formed samples of each kind of argument, which the edits below break
# or keep.
BRAID = ("b3: s1 s2^-1 s1", "b2: e", "b4: s3 s1 s3^-1", "b1: e")
TILE = ("F ; F", "(F + P) ; P", "1_2", "F + D", "(((F + P) ; P) + 1_1) ; P")
GRAPH = ('{"points": 3, "edges": [[1, 2], [2, 3]]}',
         '{"points": 2, "edges": [[1, 2]], "half_edges": [{"point": 1, "side": "in", "interval": 1}]}')
PRESENTATION = ('{"generators": ["a", "b"], "relators": [[1, 1], [2, 2, 2]]}',)
EDGE_WORD = ("g1 g2^-1", "g1", "e", "g2 g1 g2")
SMALL = ("0", "1", "2", "3")
BLOCKS = ('[[["1","0"],["0","1"]],[["1","0"],["0","1"]]]', '[[["2","0"],["0","1/2"]]]')

# One form per subcommand and graph source, with the kind of each argument.
FORMS = (
    ("braid", "reduce", BRAID),
    ("braid", "trivial", BRAID),
    ("braid", "equal", BRAID, BRAID),
    ("braid", "cable", BRAID, BRAID, BRAID),
    ("braid", "mirror", BRAID),
    ("tile", "nf", TILE),
    ("tile", "tree", TILE),
    ("tile", "group", TILE),
    ("tile", "mcg", TILE),
    ("artin", "abelianize", "--tile", TILE),
    ("artin", "abelianize", "--graph", GRAPH),
    ("artin", "abelianize", "--presentation", PRESENTATION),
    ("artin", "coxeter", "--tile", TILE, EDGE_WORD),
    ("artin", "certify", "--graph", GRAPH, EDGE_WORD),
    ("hom", "phi", "--genus", SMALL, BRAID),
    ("hom", "theta", "--tile", TILE, EDGE_WORD),
    ("hom", "phitile", "--graph", GRAPH, EDGE_WORD),
    ("hom", "omega-gamma", "--genus", SMALL, BRAID, BLOCKS),
    ("hom", "phi1", "--genus", SMALL, BRAID),
    ("hom", "discrepancy", "--genus", SMALL, BRAID, BRAID),
    ("verify", "paper", "--seed", SMALL),
    ("verify", "random", "--seed", SMALL, "--max-len", SMALL, "--genus", SMALL),
)


def _text(rng: random.Random, samples: tuple[str, ...]) -> str:
    """A sample, or a piece alone, after up to three edits, each inserting a
    piece, deleting a span or replacing one by a piece; with no numeral of
    more than 2 digits: an identity's declared width is allocated (1_1000
    builds 1000 wires), so larger numerals would measure allocation, not
    parsing."""
    while True:
        text = rng.choice(samples) if rng.random() < 0.8 else rng.choice(PIECES)
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            i = rng.randint(0, len(text))
            j = min(len(text), i + rng.randint(0, 3))
            text = text[:i] + rng.choice(("", rng.choice(PIECES))) + text[i if rng.random() < 0.5 else j:]
        if not re.search(r"[0-9]{3}", text):
            return text


def test_random_text_in_every_argument_exits_0_2_or_3(capsys):
    rng = random.Random(2006)
    codes = {}
    for form in FORMS:
        # a verify run whose options parse runs a whole suite (0.1 s)
        for _ in range(6 if form[0] == "verify" else 24):
            argv = [part if isinstance(part, str) else _text(rng, part) for part in form]
            if rng.random() < 0.3:
                argv.append("--json")
            code = cli.main(argv)
            out, err = capsys.readouterr()
            assert code in (0, 2, 3), (argv, code, err)
            assert "Traceback" not in err, (argv, err)
            assert code == 0 or err, (argv, code)
            codes.setdefault(form, set()).add(code)
    # every form reaches its handler's errors, and many give answers too
    assert all(2 in c for c in codes.values())
    assert sum(0 in c for c in codes.values()) >= len(codes) // 2
