"""Every predicate text of the corpus parses to the recorded outcome.

`tests/data/predicate_corpus.json` holds, for each text below, what
`parse_predicate` makes of it: the atoms, each literal by its repr (so an
int, a float and a string stay apart), or the type, message and offset of
the exception it raises. The texts are a few written by hand, every
predicate of the command-line corpus, and seeded random strings over an
alphabet of the language's pieces: identifiers, every casing of AND, each
operator, signed and exponent numbers, quoted strings, unterminated
quotes, whitespace and characters no token matches. To record it again
after a change that alters an outcome on purpose:

    PYTHONPATH=src python tests/test_predicate_corpus.py
"""

import functools
import itertools
import json
import random
from pathlib import Path

from qbounds.ingest import parse_predicate

DATA = Path(__file__).resolve().parent / "data"
CORPUS = DATA / "predicate_corpus.json"

_HAND = [
    "", " ", "\t\r\n", "\u00a0", "a = 1", "a = 1 AND", "a = 1 AND b", "AND = 1",
    "and = 1", "grp = 0 and and = 1", "a = 1 aNd b < 'x' AND c >= -2.5e3", "a ? 1",
    "a = 'unterminated", "a = 1 OR b = 2", "a = 1 a = 2", "a = = 1", "a 1", "= 3",
    "'x' = 1", "a = b", "a = and", "a and", "a=1and b=2", "a = 'it''s'", "a = ''''",
    "a = 1e999", "a = -0", "a = -0.0", "a = 5.", "a = .5", "a = 1e", "a = 1.2.3",
    "a = \u0663", "a = 12345678901234567890123", "and_x = 1", "ANDx = 1", "a = 1\u00e9",
]

_IDENTS = ["a", "b", "grp", "v", "col0", "_x", "x_1", "Z9", "andy", "ANDx", "and_",
           "xand", "OR", "name", "e"]
_ANDS = ["".join(spelling) for spelling in itertools.product(*zip("and", "AND"))]
_OPS = ["=", "!=", "<", "<=", ">", ">=", "!", "=="]
_NUMBERS = ["0", "1", "42", "-7", "+3", "1.5", "-0", "-0.0", ".5", "5.", "-.5", "1e3",
            "1E-3", "+2.5e+10", "7e0", "1e999", "-1e999", "9007199254740993",
            "123456789012345678901234567890", "\u0663", "1e", "1.2.3", "00"]
_STRINGS = ["'x'", "'it''s'", "''", "'a b'", "'AND'", "''''", "'NYC'", "'1'", "'\n'",
            "'\u00e9'", "'a,\"b'"]
_UNTERMINATED = ["'abc", "'", "'it''s", "'''"]
_SPACES = [" ", "  ", "\t", "\n", "\r", "\r\n", "\u00a0", "\x0b", "\u2028"]
_STRAYS = ["?", "(", ")", ";", "\"", "\u00e9", "#", "*", ",", "|", "&", "-", "+", ".",
           "\x00", "`"]
_ALPHABET = [_IDENTS, _ANDS, _OPS, _NUMBERS, _STRINGS, _UNTERMINATED, _SPACES, _STRAYS]
_SEPARATORS = ["", " ", " ", " ", "  ", "\t", "\n", "\r", "\u00a0"]
_RANDOM_TEXTS = 2400
_SEED = 7


def _cli_predicates() -> list[str]:
    """The --predicate argument of every case of the command-line corpus."""
    entries = json.loads((DATA / "cli_corpus.json").read_text(encoding="utf-8"))["entries"]
    return [argv[i + 1] for argv in (entry["argv"] for entry in entries)
            for i, part in enumerate(argv[:-1]) if part == "--predicate"]


def _random_text(rng: random.Random) -> str:
    """Any run of pieces, or one to three atoms joined by AND with at most
    one piece deleted, inserted or replaced."""
    def piece() -> str:
        return rng.choice(rng.choice(_ALPHABET))

    if rng.random() < 0.5:
        pieces = [piece() for _ in range(rng.randint(1, 10))]
    else:
        pieces = []
        for i in range(rng.randint(1, 3)):
            pieces += [rng.choice(_ANDS)] if i else []
            pieces += [rng.choice(_IDENTS), rng.choice(_OPS[:6]),
                       rng.choice(_NUMBERS + _STRINGS)]
        at = rng.randrange(len(pieces))
        change = rng.choice(["keep", "delete", "insert", "replace"])
        if change == "delete":
            del pieces[at]
        elif change == "insert":
            pieces.insert(at, piece())
        elif change == "replace":
            pieces[at] = piece()
    lead = rng.choice(["", "", "", " ", "\t"])
    return lead + "".join(p + rng.choice(_SEPARATORS) for p in pieces)


def cases() -> list[str]:
    rng = random.Random(_SEED)
    texts = _HAND + _cli_predicates() + [_random_text(rng) for _ in range(_RANDOM_TEXTS)]
    return list(dict.fromkeys(texts))


def outcome(text: str) -> dict:
    try:
        predicate = parse_predicate(text)
    except Exception as error:  # noqa: BLE001 - the type is part of the outcome
        return {"text": text, "error": type(error).__name__, "message": str(error),
                "offset": getattr(error, "offset", None)}
    return {"text": text, "atoms": [[atom.column, atom.op, repr(atom.literal)]
                                    for atom in predicate.atoms]}


@functools.cache
def _recorded() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_holds_every_case_once():
    assert [entry["text"] for entry in _recorded()] == cases()


def test_corpus_covers_both_outcomes():
    parsed = [entry for entry in _recorded() if "atoms" in entry]
    assert len(parsed) >= 300 and len(_recorded()) - len(parsed) >= 300


def test_every_predicate_parses_as_recorded():
    changed = [(entry, got) for entry in _recorded() if (got := outcome(entry["text"])) != entry]
    assert not changed, f"{len(changed)} outcomes changed, first: {changed[0]}"


def record() -> None:
    entries = [outcome(text) for text in cases()]
    lines = ",\n".join(json.dumps(entry) for entry in entries)  # one entry a line
    CORPUS.write_text(f"[\n{lines}\n]\n", encoding="utf-8")


if __name__ == "__main__":
    record()
