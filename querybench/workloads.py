"""Seeded inputs of the query benchmark's workloads.

Every input is built from ``strreg.text.gen_text`` and byte operations and is
driven by the benchmark's ``--seed``. Structured families keep their shape
fixed and take only their letters from the seed: their cost depends on the
shape, so any seed's timings stand for any other's.

An input carries what is known about its answers by construction. Exact
values are checked on every query; a forced period only bounds the period
from above. Everything else is checked by agreement between the routes.
"""

from __future__ import annotations

from dataclasses import dataclass

from strreg.text import GenSpec, gen_text

TASKS = ("period", "borders", "cover")


@dataclass(frozen=True)
class Input:
    name: str
    data: bytes
    period: int | None = None      # exact smallest period
    period_max: int | None = None  # a forced period: an upper bound only
    borders: str | None = None     # exact printed border chain
    cover: int | None = None       # exact shortest cover length

    @property
    def sigma(self) -> int:
        return len(set(self.data))

    def satisfies(self, task: str, out: str) -> bool:
        """Whether the printed answer ``out`` of ``task`` fits what is known."""
        lines = out.splitlines()
        m = len(self.data)
        if task == "borders":
            if len(lines) != 1 or not all(t.isdigit() for t in lines[0].split()):
                return False
            chain = [int(t) for t in lines[0].split()]
            if any(not 0 < b < m for b in chain) or chain != sorted(set(chain), reverse=True):
                return False
            return self.borders is None or lines[0] == self.borders
        if not lines or not lines[0].isdigit():
            return False
        value = int(lines[0])
        if not 1 <= value <= m:
            return False
        if task == "period":
            return (
                len(lines) == 1
                and (self.period is None or value == self.period)
                and (self.period_max is None or value <= self.period_max)
            )
        superprimitive = value == m
        if lines[1:] != (["superprimitive"] if superprimitive else []):
            return False
        return self.cover is None or value == self.cover


def _letters(seed: int, k: int) -> bytes:
    """``k`` distinct lowercase letters, in the order a seeded text first shows them."""
    seen = dict.fromkeys(gen_text(GenSpec(alphabet_size=26, length=512, seed=seed)))
    seen.update(dict.fromkeys(range(97, 97 + 26)))  # never short of letters
    return bytes(list(seen)[:k])


def _relabel(x: bytes, src: bytes, dst: bytes) -> bytes:
    return x.translate(bytes.maketrans(src, dst))


def _repeat(u: bytes, m: int) -> bytes:
    return (u * (m // len(u) + 1))[:m]


def random_text(sigma: int, m: int, seed: int, tag: str = "") -> Input:
    """Uniform text with no border of length <= 64, so its border chain is empty.

    It is a head, a middle and a tail of 64, m - 128 and 64 bytes from three
    ``gen_text`` streams. The tail is redrawn until no prefix of the head is a
    suffix of the tail. A longer border has probability about sigma**-64.
    Without this, whether a short border exists would change with the seed,
    and so would the cost of the cover search.
    """
    def draw(n: int, s: int) -> bytes:
        return gen_text(GenSpec(alphabet_size=sigma, length=n, seed=s))

    head, middle = draw(64, seed), draw(m - 128, seed + 1)
    s = seed + 2
    tail = draw(64, s)
    while any(head[:b] == tail[-b:] for b in range(1, 65)):
        s += 1
        tail = draw(64, s)
    return Input(f"uniform-s{sigma}-{m}{tag}", head + middle + tail)


def forced_period(sigma: int, m: int, p: int, seed: int) -> Input:
    spec = GenSpec(alphabet_size=sigma, length=m, seed=seed, forced_period=p)
    return Input(f"forced-s{sigma}-P{p}-{m}", gen_text(spec), period_max=p)


def forced_binary_p3(m: int, seed: int) -> Input:
    """Forced period 3 over two letters, shape ``xyy``.

    The first seed from ``seed`` upward whose head has its first letter once
    is taken: other heads are unary or ``(xxy)^n`` and would change the cost.
    """
    s = seed
    while True:
        data = gen_text(GenSpec(alphabet_size=2, length=m, seed=s, forced_period=3))
        if data[0] != data[1] and data[1] == data[2]:
            return Input(f"forced-s2-P3-{m}", data, period=3)
        s += 1


def thue_morse(m: int, seed: int) -> Input:
    t = b"a"
    flip = bytes.maketrans(b"ab", b"ba")
    while len(t) < m:
        t += t.translate(flip)
    return Input(f"thue-morse-{m}", _relabel(t[:m], b"ab", _letters(seed, 2)))


def fibonacci(m: int, seed: int) -> Input:
    s, t = b"a", b"ab"
    while len(t) < m:
        s, t = t, t + s
    return Input(f"fibonacci-{m}", _relabel(t[:m], b"ab", _letters(seed, 2)))


def aab(m: int, seed: int) -> Input:
    data = _relabel(_repeat(b"aab", m), b"ab", _letters(seed, 2))
    return Input(f"aab-{m}", data, period=3)


def unary(m: int, seed: int) -> Input:
    return Input(f"unary-{m}", _letters(seed, 1) * m, period=1, borders="1", cover=1)


def defected(m: int, where: str, seed: int) -> Input:
    """``(abcab)^n`` cut to ``m`` bytes with one byte replaced by a fresh letter.

    ``end`` is ``(abcab)^n + z``. ``start`` replaces byte 1, so the first two
    bytes occur nowhere else. Both leave no border: the period and the cover
    are ``m``. ``middle`` replaces byte ``m // 2`` and keeps borders.
    """
    a, b, c, z = _letters(seed, 4)
    base = _relabel(_repeat(b"abcab", m), b"abc", bytes((a, b, c)))
    cut = {"start": 1, "middle": m // 2, "end": m - 1}[where]
    data = base[:cut] + bytes((z,)) + base[cut + 1 :]
    if where == "middle":
        return Input(f"defect-{where}-{m}", data)
    return Input(f"defect-{where}-{m}", data, period=m, borders="", cover=m)


def _sub(seed: int, i: int) -> int:
    """First seed of the ``i``-th input of a workload.

    Inputs that redraw take the next seeds up; the stride keeps their seeds
    apart from other inputs' and other workload seeds'.
    """
    return (seed << 20) + (i << 10)


def build_inputs(workload: str, seed: int) -> list[Input]:
    """The inputs of ``workload`` for ``seed``; equal seeds give equal bytes."""
    if workload == "random-text":
        return [random_text(26, 10**6, _sub(seed, i), f"-{i}") for i in range(3)]
    if workload == "dense-pivot":
        return [random_text(s, 10**6, _sub(seed, s)) for s in (2, 3, 4)]
    if workload == "periodic-cover":
        m = 2 * 10**5
        return [
            forced_period(26, 10**6, 1000, _sub(seed, 0)),
            forced_binary_p3(m, _sub(seed, 1)),
            aab(m, _sub(seed, 2)),
            fibonacci(m, _sub(seed, 3)),
            thue_morse(m, _sub(seed, 4)),
            unary(m, _sub(seed, 5)),
        ]
    if workload == "defect-worst-case":
        return [
            defected(m, where, _sub(seed, i))
            for i, (m, where) in enumerate(
                (m, where) for m in (10**5, 2 * 10**5) for where in ("start", "middle", "end")
            )
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("random-text", "dense-pivot", "periodic-cover", "defect-worst-case")
