"""The hypergraph text format against reference copies of the line-by-line
parser and the per-edge formatter.

``ref_parse`` and ``ref_format`` are the plain versions of
``parse_hypergraph`` and ``format_hypergraph``: one Python step per line and
per edge.  The library must give byte-identical text, and on any input the
same Hypergraph3 or the same ParseError (line number and message).
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersquare import (
    Hypergraph3,
    ParseError,
    cli,
    complete,
    core,
    format_hypergraph,
    parse_hypergraph,
    pikhurko,
    random_hypergraph,
)
from hypersquare.core import bits_of, pair_masks_from_upper


def ref_parse(text: str) -> Hypergraph3:
    n = None
    up = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise ParseError(line_no, f"expected header 'n <N>', got {line!r}")
            try:
                n = int(parts[1])
            except ValueError:
                raise ParseError(line_no, f"bad vertex count {parts[1]!r}") from None
            if n < 0:
                raise ParseError(line_no, "vertex count must be nonnegative")
            up = [[0] * n for _ in range(n)]
            continue
        if len(parts) != 3:
            raise ParseError(line_no, f"expected 'i j k', got {line!r}")
        try:
            i, j, k = map(int, parts)
        except ValueError:
            raise ParseError(line_no, f"non-integer vertex in {line!r}") from None
        if not 0 <= i < j < k < n:
            raise ParseError(line_no, f"edge {i} {j} {k} violates 0 <= i < j < k < {n}")
        row, bit = up[i], 1 << k
        if row[j] & bit:
            raise ParseError(line_no, f"duplicate edge {i} {j} {k}")
        row[j] |= bit
    if n is None:
        raise ParseError(1, "missing header 'n <N>'")
    return Hypergraph3.from_pair_masks(n, pair_masks_from_upper(n, up))


def ref_format(h: Hypergraph3) -> str:
    n, pn = h.n, h._pn
    names = [str(w) for w in range(n)]
    lines = [f"n {n}"]
    for u in range(n):
        row = pn[u]
        for v in range(u + 1, n - 1):
            prefix = f"{u} {v} "
            lines.extend([prefix + names[w] for w in bits_of(row[v] >> (v + 1) << (v + 1))])
    return "\n".join(lines) + "\n"


def outcome(parse, text: str):
    """("ok", graph) or ("error", line number, message)."""
    try:
        return ("ok", parse(text))
    except ParseError as exc:
        return ("error", exc.line_no, str(exc))


def assert_same_parse(text: str):
    assert outcome(parse_hypergraph, text) == outcome(ref_parse, text)


hypergraphs = st.builds(
    random_hypergraph,
    st.integers(0, 40),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32),
)

# ways to write a line break that splitlines() honours and split("\n") does not
BREAKS = ("\r\n", "\r", "\x0c", "\x0b", "\x1c", "\x85", "\u2028", "\u2029")
# spellings of a vertex that int() accepts and the canonical form does not
SPELLINGS = (
    lambda t: "0" + t,
    lambda t: "+" + t,
    lambda t: "0_" + t,
    lambda t: t.translate({ord("0") + d: 0x0660 + d for d in range(10)}),
    lambda t: t.translate({ord("0") + d: 0xFF10 + d for d in range(10)}),
)


def mutate(text: str, n: int, rng) -> str:
    """``text`` with one random change of the kinds a hand-edited or foreign
    file shows; some keep it valid, some do not."""
    lines = text.split("\n")[:-1]
    body = range(1, len(lines)) if len(lines) > 1 else range(len(lines))
    kind = rng.randrange(13)
    at = rng.choice(body) if body else 0
    if kind == 0 and len(lines) > 2:
        # swap two lines
        other = rng.choice(body)
        lines[at], lines[other] = lines[other], lines[at]
    elif kind == 1 and lines:
        # duplicate a line
        lines.insert(rng.choice(body), lines[at])
    elif kind == 2 and lines:
        # respell one vertex
        parts = lines[at].split(" ")
        t = rng.randrange(len(parts))
        if parts[t].isdigit():
            parts[t] = rng.choice(SPELLINGS)(parts[t])
        lines[at] = " ".join(parts)
    elif kind == 3:
        # a line break other than "\n", before or after the header
        out = "\n".join(lines) + "\n"
        cuts = [i for i, c in enumerate(out) if c == "\n"]
        cut = rng.choice(cuts)
        return out[:cut] + rng.choice(BREAKS) + out[cut + 1 :]
    elif kind == 4:
        # a comment or a blank line after the header
        note = rng.choice(["# note", "#", "", "  ", "# 0 1 2"])
        lines.insert(rng.randrange(1, len(lines) + 1) if lines else 0, note)
    elif kind == 5 and lines:
        # a comment at the end of a line
        lines[at] += rng.choice([" # note", "#", " #"])
    elif kind == 6 and lines:
        # other whitespace between or around the tokens
        parts = lines[at].split(" ")
        gap = rng.choice(["  ", "\t", " \t", "\u3000"])
        where = rng.randrange(3)
        if where == 0:
            lines[at] = gap.join(parts)
        elif where == 1:
            lines[at] = gap + lines[at]
        else:
            lines[at] = lines[at] + gap
    elif kind == 7:
        # no final newline
        return "\n".join(lines)
    elif kind == 8 and len(lines) > 1:
        # an out-of-range vertex
        parts = lines[at].split(" ")
        parts[rng.randrange(len(parts))] = rng.choice([str(n), str(n + 7), "-1"])
        lines[at] = " ".join(parts)
    elif kind == 9 and len(lines) > 2:
        # two lines merged into one, or one line split in two
        at = rng.randrange(1, len(lines) - 1)
        if rng.random() < 0.5:
            lines[at : at + 2] = [lines[at] + " " + lines[at + 1]]
        else:
            parts = (lines[at] + " " + lines[at + 1]).split(" ")
            cut = rng.choice([1, 2, 4, 5])
            lines[at : at + 2] = [" ".join(parts[:cut]), " ".join(parts[cut:])]
    elif kind == 10 and len(lines) > 1:
        # reversed or repeated vertices within a line
        parts = lines[at].split(" ")
        lines[at] = " ".join(rng.choice([parts[::-1], parts[:2] + parts[1:2], parts[1:] + parts[:1]]))
    elif kind == 11 and lines:
        # a respelled header
        lines[0] = rng.choice([f"n  {n}", f"n 0{n}", f"n +{n}", f" n {n}", f"n {n} ", f"N {n}", "n x", "n -1", "n"])
    elif kind == 12:
        # a comment or blank prefix before the header
        lines[:0] = rng.choice([["# manifest: {}"], [""], ["  ", "#"], ["# a", "0 1 2"]])
    return "\n".join(lines) + "\n"


class TestFormat:
    @settings(max_examples=150, deadline=None)
    @given(hypergraphs)
    def test_matches_reference(self, h):
        assert format_hypergraph(h) == ref_format(h)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_tiny(self, n):
        h = random_hypergraph(n, 1.0, 0)
        assert format_hypergraph(h) == ref_format(h)

    @pytest.mark.parametrize("n", [3, 4, 9, 40])
    def test_complete(self, n):
        assert format_hypergraph(complete(n)) == ref_format(complete(n))

    @pytest.mark.parametrize("n", [8, 12, 40])
    def test_pikhurko(self, n):
        h = pikhurko(n)[0]
        assert format_hypergraph(h) == ref_format(h)


class TestParse:
    @settings(max_examples=150, deadline=None)
    @given(hypergraphs)
    def test_canonical_text(self, h):
        text = ref_format(h)
        assert parse_hypergraph(text) == ref_parse(text) == h

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 12), st.floats(0.0, 1.0), st.integers(0, 2**32), st.randoms(use_true_random=False), st.integers(1, 3))
    def test_mutated_text(self, n, p, seed, rng, rounds):
        text = ref_format(random_hypergraph(n, p, seed))
        for _ in range(rounds):
            text = mutate(text, n, rng)
        assert_same_parse(text)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\n",
            "# only a comment\n",
            "n 4",
            "n 4\n0 1 2",
            "n 4\n0 1 2\n0 1 2\n",
            "n 4\n0 1 2\n0 1 3\n0 1 2\n",
            "n 4\n2 1 0\n",
            "n 4\n0 2 1\n",
            "n 4\n1 1 2\n",
            "n 4\n0 1 4\n",
            "n 4\n0 1\n2 3 1 2\n",
            "n 4\n0 1 2 0\n1 3\n",
            "n 4\n00 1 2\n",
            "n 4\n+0 1 2\n",
            "n 4\r\n0 1 2\r\n",
            "n 4\n0 1 2\r\n",
            "n 4\n0 1 2\n\n0 1 3\n",
            "n 4\n0 1 2\n# between\n0 1 3\n",
            "n 4\n0 1 2\n\x0c\n",
            "n 4 0 1 2\n",
            "# n 4\n0 1 2\n",
            "#\rn 4\n0 1 2\n",
            "n 0\n0 1 2\n",
            "n 3\n0 1 2\n",
            "  n 3\n0 1 2\n",
            "n 03\n0 1 2\n",
        ],
    )
    def test_hand_written(self, text):
        assert_same_parse(text)

    @pytest.mark.parametrize(
        "text",
        [
            "n 4\n0 1 2\n0 1 2\n",
            "n 4\n2 1 0\n",
            "n 4\n0 1 4\n",
            "n 4\n0 1\n2 3 1 2\n",
            "n 4\n00 1 2\n",
            "n 4\n+0 1 2\n",
            "n 4\r\n0 1 2\r\n",
            "n 4\n0 1 2",
            "n 4\n0 1 2\n\n0 1 3\n",
        ],
    )
    def test_fast_path_declines(self, text):
        assert core._parse_canonical(text) is None

    def test_chunk_boundaries(self):
        """Changes next to each cut between chunks of a multi-chunk text."""
        h = random_hypergraph(40, 0.8, 3)
        text = format_hypergraph(h)
        assert len(text) > 3 * core._PARSE_CHUNK
        assert_same_parse(text)
        pos = text.index("\n") + 1
        while pos < len(text):
            cut = text.find("\n", min(pos + core._PARSE_CHUNK, len(text) - 1)) + 1
            if cut == len(text):
                break
            prev = text.rfind("\n", 0, cut - 1) + 1
            nxt = text.find("\n", cut) + 1
            before, after = text[prev:cut], text[cut:nxt]
            for changed in (
                text[:cut] + after + text[cut:],
                text[:prev] + after + before + text[nxt:],
                text[: cut - 1] + " " + text[cut:],
                text[: cut - 1] + "\r\n" + text[cut:],
                text[:cut] + "\n" + text[cut:],
            ):
                assert_same_parse(changed)
            pos = cut


class TestFastPathTaken:
    """Canonical text must never reach the line loop."""

    @pytest.fixture(autouse=True)
    def no_line_loop(self, monkeypatch):
        def refuse(text):
            raise AssertionError("canonical text fell back to the line loop")

        monkeypatch.setattr(core, "_parse_lines", refuse)

    @pytest.mark.parametrize("n", [0, 5, 60])
    def test_format_output(self, n):
        h = random_hypergraph(n, 0.6, n)
        assert parse_hypergraph(format_hypergraph(h)) == h

    def test_gen_output_with_manifest(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(["gen", "dense", "30", "--delta2", "0.8", "--seed", "4"]) == 0
        text = buf.getvalue()
        assert text.startswith("# manifest: ")
        assert parse_hypergraph(text) == ref_parse(text)
