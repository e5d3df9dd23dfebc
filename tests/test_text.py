import pytest
from hypothesis import given
from hypothesis import strategies as st

from strreg.text import EmptyInputError, GenSpec, gen_text, load_text

# Pinned once from a standalone run of the stated LCG recurrence.
GOLDEN_4_64_42 = b"bbbdabcbadbbaabdbcdadabdacbbacbaaabbcbddbbddccddacacdccdcdbbccda"


def lcg_reference(alphabet_size, length, seed, forced_period=None):
    # Independent transcription of the generator contract: with a forced
    # period p, index i >= p copies index i - p and draws nothing.
    state = seed % 2**64
    out = []
    for i in range(length):
        if forced_period is not None and i >= forced_period:
            out.append(out[i - forced_period])
            continue
        state = (6364136223846793005 * state + 1442695040888963407) % 2**64
        out.append(97 + (state >> 32) % alphabet_size)
    return bytes(out)


class TestGenText:
    def test_unary_alphabet(self):
        assert gen_text(GenSpec(alphabet_size=1, length=4, seed=12345)) == b"aaaa"

    def test_golden_snapshot(self):
        assert gen_text(GenSpec(alphabet_size=4, length=64, seed=42)) == GOLDEN_4_64_42

    def test_matches_reference_recurrence(self):
        for seed in (0, 1, 42, 2**63, 2**64 - 1):
            assert gen_text(GenSpec(3, 40, seed)) == lcg_reference(3, 40, seed)

    def test_forced_period_matches_reference(self):
        for sigma in (1, 2, 3, 26, 159):
            for length in (1, 2, 3, 7, 64, 301):
                for p in {max(1, min(q, length)) for q in (1, 2, 5, length // 2, length - 1, length)}:
                    for seed in (0, 42, 2**64 - 1):
                        spec = GenSpec(sigma, length, seed, forced_period=p)
                        assert gen_text(spec) == lcg_reference(sigma, length, seed, p), spec

    def test_deterministic(self):
        spec = GenSpec(alphabet_size=26, length=500, seed=7)
        assert gen_text(spec) == gen_text(spec)

    def test_forced_period_structure(self):
        from strreg.classical import naive_period

        w = gen_text(GenSpec(alphabet_size=2, length=8, seed=7, forced_period=3))
        assert all(w[i] == w[i - 3] for i in range(3, len(w)))
        assert naive_period(w) in {1, 2, 3}

    @given(st.integers(1, 64), st.integers(0, 2**64 - 1), st.integers(1, 8))
    def test_forced_period_is_a_period(self, length, seed, p):
        if p > length:
            p = length
        w = gen_text(GenSpec(alphabet_size=2, length=length, seed=seed, forced_period=p))
        assert all(w[i] == w[i + p] for i in range(length - p))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alphabet_size=0, length=4, seed=1),
            dict(alphabet_size=200, length=4, seed=1),
            dict(alphabet_size=2, length=0, seed=1),
            dict(alphabet_size=2, length=4, seed=1, forced_period=0),
            dict(alphabet_size=2, length=4, seed=1, forced_period=5),
        ],
    )
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GenSpec(**kwargs)


class TestLoadText:
    def test_prefix_slicing(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_bytes(b"agaacgcagtata")
        assert load_text(path, 5) == b"agaac"

    def test_whole_file(self, tmp_path):
        path = tmp_path / "fig1.txt"
        path.write_bytes(b"abaababaaba")
        assert len(load_text(path)) == 11

    def test_prefix_of_large_file(self, tmp_path):
        path = tmp_path / "big.bin"
        path.write_bytes(b"x" * 10**6)
        assert len(load_text(path, 10**5)) == 10**5

    def test_prefix_longer_than_file(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_bytes(b"abc")
        assert load_text(path, 100) == b"abc"

    def test_prefix_equals_slice_of_whole(self, tmp_path):
        path = tmp_path / "p.bin"
        data = bytes(range(256)) * 3
        path.write_bytes(data)
        whole = load_text(path)
        for k in (1, 2, 17, 255, 700, 768):
            assert load_text(path, k) == whole[:k]

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError, match="nope.bin"):
            load_text(tmp_path / "nope.bin")

    def test_zero_prefix_rejected(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_bytes(b"a")
        with pytest.raises(ValueError):
            load_text(path, 0)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_bytes(b"")
        with pytest.raises(EmptyInputError):
            load_text(path)
