"""Step words: classification, celibate marking, factorization, Dyck maps."""

import math

import pytest
from hypothesis import given, strategies as st

from heappieces import (
    PathKind,
    StepWord,
    WordError,
    bicolored_prefix_to_dyck_prefix,
    bicolored_to_dyck,
    catalan_factorize,
    classify,
    count_paths,
    mark_celibates,
)
from heappieces.animals import (
    all_prefixes,
    all_words,
    animal_count,
    catalan_number,
    motzkin_number,
)
from heappieces.paths import is_motzkin_word


def words(r, max_len=10):
    alphabet = "ab" + "cd"[:r]
    return st.text(alphabet=alphabet, max_size=max_len).map(lambda s: StepWord(r, s))


def simulate(letters):
    """Direct partial-sum walk: (all >= 0, final height)."""
    h = 0
    ok = True
    for ch in letters.lower():
        if ch == "a":
            h += 1
        elif ch == "b":
            h -= 1
        if h < 0:
            ok = False
    return ok, h


def bicolored_to_dyck_oracle(letters):
    """The recursive rules eps -> ab, cU -> ab U', dU -> a U' b, aUbV -> a U' b V'."""
    if not letters:
        return "ab"
    if letters[0] == "c":
        return "ab" + bicolored_to_dyck_oracle(letters[1:])
    if letters[0] == "d":
        return "a" + bicolored_to_dyck_oracle(letters[1:]) + "b"
    h = 0  # letters[0] == "a": U ends at the first return to level zero
    for i, ch in enumerate(letters):
        h += {"a": 1, "b": -1}.get(ch, 0)
        if h == 0:
            u, v = letters[1:i], letters[i + 1 :]
            return "a" + bicolored_to_dyck_oracle(u) + "b" + bicolored_to_dyck_oracle(v)
    raise AssertionError("unbalanced word")


def catalan_factorize_by_buckets(w):
    """Declared oracle for catalan_factorize: the bucket loop over the marked word.

    Letters collect in a bucket that each separator closes; a bucket goes
    to the ascent side once any `A` has been read.
    """
    pre, post, bucket = [], [], []
    seen_ascent = False
    for ch in mark_celibates(w).letters:
        if ch == "B":
            pre.append(StepWord(w.r, "".join(bucket)))
            bucket = []
        elif ch == "A":
            (post if seen_ascent else pre).append(StepWord(w.r, "".join(bucket)))
            bucket = []
            seen_ascent = True
        else:
            bucket.append(ch)
    (post if seen_ascent else pre).append(StepWord(w.r, "".join(bucket)))
    return tuple(pre), tuple(post)


def dyck_prefix_by_buckets(w):
    """Declared oracle for bicolored_prefix_to_dyck_prefix via the bucket loop."""
    pre, post = catalan_factorize_by_buckets(w)
    assert len(pre) == 1  # a Motzkin prefix has no celibate descent
    return "a".join(bicolored_to_dyck(u).letters[:-1] for u in pre + post)


def every_word(max_len, r):
    return [w for n in range(max_len + 1) for w in all_words(n, r)]


class TestStepWord:
    def test_illegal_letters(self):
        with pytest.raises(WordError):
            StepWord(0, "c")
        with pytest.raises(WordError):
            StepWord(1, "d")
        StepWord(2, "abcdAB")  # all fine

    def test_bad_r(self):
        with pytest.raises(WordError):
            StepWord(3, "a")

    def test_error_names_first_illegal_letter(self):
        with pytest.raises(WordError, match="letter 'd' illegal for r=1"):
            StepWord(1, "acdBdx")

    def test_str_is_the_letters(self):
        assert str(StepWord(2, "acdB")) == "acdB"


class TestClassify:
    def test_empty(self):
        assert classify(StepWord(1, "")) == (PathKind.MOTZKIN_WORD, 0)

    def test_single_letters(self):
        assert classify(StepWord(1, "a")) == (PathKind.MOTZKIN_PREFIX, 1)
        assert classify(StepWord(1, "b"))[0] is PathKind.GENERAL

    def test_longer_word(self):
        # up, flat, up, up, down x3, flat x2, ...
        assert classify(StepWord(1, "acaabbbccabacb")) == (PathKind.MOTZKIN_WORD, 0)

    @given(words(2))
    def test_matches_simulation(self, w):
        kind, height = classify(w)
        nonneg, end = simulate(w.letters)
        assert height == end
        if not nonneg:
            assert kind is PathKind.GENERAL
        elif end == 0:
            assert kind is PathKind.MOTZKIN_WORD
        else:
            assert kind is PathKind.MOTZKIN_PREFIX

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_every_word_marked_or_not(self, r):
        for w in every_word(7, r):
            kind, height = classify(w)
            nonneg, end = simulate(w.letters)
            assert height == end
            assert (kind is PathKind.GENERAL) == (not nonneg)
            assert (kind is PathKind.MOTZKIN_WORD) == (nonneg and end == 0)
            assert classify(mark_celibates(w)) == (kind, height)


class TestMarking:
    def test_lonely_ascent(self):
        assert mark_celibates(StepWord(1, "a")).letters == "A"

    def test_matched_pair(self):
        assert mark_celibates(StepWord(1, "ab")).letters == "ab"

    def test_descend_then_ascend(self):
        assert mark_celibates(StepWord(1, "ba")).letters == "BA"

    @given(words(2))
    def test_motzkin_words_unmarked_prefix_marks_equal_height(self, w):
        marked = mark_celibates(w)
        kind, height = classify(w)
        ups = marked.letters.count("A")
        downs = marked.letters.count("B")
        if kind is PathKind.MOTZKIN_WORD:
            assert ups == downs == 0
        if kind in (PathKind.MOTZKIN_WORD, PathKind.MOTZKIN_PREFIX):
            assert downs == 0 and ups == height

    @pytest.mark.parametrize("r, top", [(1, 10), (2, 7)])
    def test_skipping_descents_is_a_fast_path_on_prefixes(self, r, top):
        # a Motzkin prefix never reaches a new minimum, so it has no `B`
        for length in range(top + 1):
            for w in all_prefixes(length, r):
                assert mark_celibates(w, descents=False) == mark_celibates(w)

    def test_skipping_descents_leaves_new_minima_unmarked(self):
        w = StepWord(1, "b")
        assert mark_celibates(w).letters == "B"
        assert mark_celibates(w, descents=False).letters == "b"

    @given(words(2))
    def test_remark_idempotent(self, w):
        once = mark_celibates(w)
        assert mark_celibates(once) == once

    @given(words(1, max_len=12))
    def test_marks_match_definitions(self, w):
        """Check against the definitional scan, not the running-minimum trick."""
        letters = w.letters
        marked = mark_celibates(w).letters
        hs = [0]
        for ch in letters:
            hs.append(hs[-1] + (ch == "a") - (ch == "b"))
        for i, ch in enumerate(letters):
            if ch == "a":
                start = hs[i]
                returns = any(
                    letters[j] == "b" and hs[j + 1] == start
                    for j in range(i + 1, len(letters))
                )
                assert (marked[i] == "A") == (not returns)
            elif ch == "b":
                level = hs[i + 1]
                preceded = any(
                    letters[j] == "a" and hs[j] == level for j in range(i)
                )
                assert (marked[i] == "B") == (not preceded)


class TestFactorize:
    def test_motzkin_word_single_factor(self):
        pre, post = catalan_factorize(StepWord(1, "acb"))
        assert len(pre) == 1 and not post
        assert pre[0].letters == "acb"

    def test_prefix_height_three(self):
        pre, post = catalan_factorize(StepWord(1, "aaa"))
        assert len(pre) == 1 and len(post) == 3
        assert all(not u.letters for u in pre + post)

    def test_baba(self):
        # by the definitions: first b reaches a new minimum (celibate), the
        # second does not; only the last a stays unmatched
        marked = mark_celibates(StepWord(1, "baba")).letters
        assert marked == "BabA"
        pre, post = catalan_factorize(StepWord(1, "baba"))
        assert [u.letters for u in pre] == ["", "ab"]
        assert [u.letters for u in post] == [""]

    @given(words(2))
    def test_reconcatenation(self, w):
        pre, post = catalan_factorize(w)
        rebuilt = "b".join(u.letters for u in pre)
        if post:
            rebuilt += "a" + "a".join(u.letters for u in post)
        assert rebuilt == w.unmarked().letters
        for u in pre + post:
            assert is_motzkin_word(u)
        marked = mark_celibates(w).letters
        assert (len(pre) - 1, len(post)) == (
            marked.count("B"), marked.count("A"),
        )


class TestFactorizationOracles:
    """The split-at-marks rewrites against the bucket loop they replaced."""

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_catalan_factorize_equals_buckets(self, r):
        for w in every_word(7, r):
            assert catalan_factorize(w) == catalan_factorize_by_buckets(w)

    def test_prefix_map_equals_buckets(self):
        for n in range(8):
            for w in all_prefixes(n, 2):
                assert bicolored_prefix_to_dyck_prefix(w).letters == dyck_prefix_by_buckets(w)


def count_paths_full_rows(n, r, kind):
    """Declared oracle of `count_paths`: the same DP keeping every reachable
    height, so row i lists heights 0..i."""
    ways = [1]  # ways[h] = paths of current length ending at h
    for _ in range(n):
        # new height h comes from h-1 (ascend), h (r flat colors) and h+1 (descend)
        ways = [
            up + r * flat + down
            for up, flat, down in zip([0, *ways], [*ways, 0], [*ways[1:], 0, 0])
        ]
    return ways[0] if kind == "word" else sum(ways)


class TestCounts:
    @pytest.mark.parametrize("r", (0, 1, 2))
    @pytest.mark.parametrize("kind", ("word", "prefix"))
    def test_matches_full_rows(self, r, kind):
        for n in range(151):
            assert count_paths(n, r, kind) == count_paths_full_rows(n, r, kind), n

    def test_closed_forms_at_1000(self):
        assert count_paths(999, 1, "prefix") == animal_count(1000, "square", "point")
        assert count_paths(999, 2, "prefix") == animal_count(1000, "triangular", "point")
        assert count_paths(1000, 1, "word") == motzkin_number(1000)
        assert count_paths(1000, 2, "word") == catalan_number(1001)
        assert count_paths(1000, 0, "word") == catalan_number(500)
        assert count_paths(1001, 0, "word") == 0
        assert count_paths(1000, 0, "prefix") == math.comb(1000, 500)
        assert count_paths(1001, 0, "prefix") == math.comb(1001, 500)

    def test_motzkin_words(self):
        assert [count_paths(n, 1, "word") for n in range(9)] == [
            1, 1, 2, 4, 9, 21, 51, 127, 323,
        ]

    def test_bicolored_words_are_catalan(self):
        assert [count_paths(n, 2, "word") for n in range(8)] == [
            1, 2, 5, 14, 42, 132, 429, 1430,
        ]
        for n in range(1, 13):
            assert count_paths(n - 1, 2, "word") == math.comb(2 * n, n) // (n + 1)

    def test_motzkin_prefixes(self):
        assert [count_paths(n, 1, "prefix") for n in range(9)] == [
            1, 2, 5, 13, 35, 96, 267, 750, 2123,
        ]

    def test_bicolored_prefixes_are_half_central(self):
        for n in range(1, 13):
            assert count_paths(n - 1, 2, "prefix") == math.comb(2 * n, n) // 2

    def test_dyck_counts(self):
        for m in range(7):
            assert count_paths(2 * m, 0, "word") == math.comb(2 * m, m) // (m + 1)
            assert count_paths(2 * m + 1, 0, "word") == 0

    def test_matches_exhaustive(self):
        for r in (1, 2):
            for n in range(6):
                assert count_paths(n, r, "prefix") == len(all_prefixes(n, r))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            count_paths(-1, 1, "word")
        with pytest.raises(WordError, match="r must be 0, 1 or 2, got 3"):
            count_paths(3, 3, "word")
        with pytest.raises(ValueError, match="kind must be 'word' or 'prefix', got 'x'"):
            count_paths(3, 1, "x")


class TestDyckBijections:
    def test_base_cases(self):
        assert bicolored_to_dyck(StepWord(2, "")).letters == "ab"
        assert bicolored_to_dyck(StepWord(2, "d")).letters == "aabb"
        assert bicolored_to_dyck(StepWord(2, "ab")).letters == "aabbab"

    def test_rejects_non_words(self):
        with pytest.raises(WordError):
            bicolored_to_dyck(StepWord(2, "a"))
        with pytest.raises(WordError):
            bicolored_to_dyck(StepWord(1, "c"))
        with pytest.raises(WordError, match="input must be a bicolored Motzkin prefix"):
            bicolored_prefix_to_dyck_prefix(StepWord(2, "db"))

    def test_bijection_onto_dyck_words(self):
        for length in range(7):
            sources = [w for w in all_words(length, 2) if is_motzkin_word(w)]
            images = {bicolored_to_dyck(w).letters for w in sources}
            assert len(images) == len(sources)
            targets = {
                w.letters
                for w in all_words(2 * length + 2, 0)
                if is_motzkin_word(w)
            }
            assert images == targets
            for s in images:
                assert len(s) == 2 * length + 2

    def test_matches_recursive_oracle(self):
        for length in range(9):
            for w in all_words(length, 2):
                if is_motzkin_word(w):
                    want = bicolored_to_dyck_oracle(w.letters)
                    assert bicolored_to_dyck(w).letters == want

    def test_ten_thousand_letters(self):
        """Past the recursion limit: the map is one pass, not a recursion."""
        n = 10_000
        got = bicolored_to_dyck(StepWord(2, "d" * n)).letters
        assert got == "a" * (n + 1) + "b" * (n + 1)
        assert bicolored_to_dyck(StepWord(2, "c" * n)).letters == "ab" * (n + 1)
        m = n // 2  # a^m b^m -> a^m ab (bab)^m, from aUbV -> a U' b V' with V empty
        nested = StepWord(2, "a" * m + "b" * m)
        assert bicolored_to_dyck(nested).letters == "a" * (m + 1) + "b" + "bab" * m
        prefix = bicolored_prefix_to_dyck_prefix(StepWord(2, "d" * n))
        assert prefix.letters == "a" * (n + 1) + "b" * n

    def test_prefix_map_base(self):
        assert bicolored_prefix_to_dyck_prefix(StepWord(2, "")).letters == "a"

    def test_prefix_counts(self):
        for length, n in ((1, 2), (2, 3)):
            sources = all_prefixes(length, 2)
            images = {bicolored_prefix_to_dyck_prefix(w).letters for w in sources}
            assert len(images) == len(sources) == math.comb(2 * n - 1, n)
            for s in images:
                assert len(s) == 2 * length + 1

    def test_prefix_bijection_onto_dyck_prefixes(self):
        from heappieces.paths import is_motzkin_prefix

        for length in range(6):
            sources = all_prefixes(length, 2)
            images = {bicolored_prefix_to_dyck_prefix(w).letters for w in sources}
            targets = {
                w.letters
                for w in all_words(2 * length + 1, 0)
                if is_motzkin_prefix(w)
            }
            assert images == targets
