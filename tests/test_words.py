"""Tests for word handling, normal forms, and growth counts."""

import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from octagap.errors import DomainError, MemoryGuardError
from octagap.group import GENERATOR_NAMES, identity
from octagap.words import (
    FREE_LETTERS,
    enumerate_free_ball,
    enumerate_racg_ball,
    evaluate_word,
    free_ball_count,
    free_sphere_count,
    free_to_face_word,
    normal_form,
    perp_image,
    racg_ball_count,
    racg_sphere_count,
    shortlex_automaton_masks,
)

RACG_SPHERES = (1, 8, 44, 224, 1124, 5624)

face_words = st.lists(st.sampled_from(GENERATOR_NAMES), max_size=10).map(tuple)
free_words = st.lists(st.sampled_from(FREE_LETTERS), max_size=10).map(tuple)


def _free_reduce(letters):
    """Reduce a word in the order-two free product generators."""
    out = []
    for letter in letters:
        if out and out[-1] == letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


# -- normal forms ---------------------------------------------------------------


@given(face_words)
def test_normal_form_preserves_the_group_element(word):
    reduced = normal_form(word)
    assert evaluate_word(reduced) == evaluate_word(word)


@given(face_words)
def test_normal_form_is_idempotent_and_recognized(word):
    reduced = normal_form(word)
    assert normal_form(reduced) == reduced


@given(face_words)
def test_normal_form_never_lengthens_and_preserves_parity(word):
    reduced = normal_form(word)
    assert len(reduced) <= len(word)
    assert (len(word) - len(reduced)) % 2 == 0


@given(face_words)
def test_word_length_is_geodesic_length(word):
    """len(normal_form(w)) is the word length of the element: it is at most
    len(w), and one more letter changes it by exactly one, as in every
    Coxeter group (l(ws) = l(w) +- 1)."""
    length = len(normal_form(word))
    assert length <= len(word)
    for letter in GENERATOR_NAMES:
        assert abs(len(normal_form(word + (letter,))) - length) == 1


def test_normal_form_examples():
    assert normal_form(("r1", "r1")) == ()
    assert normal_form(("r2p", "r1", "r2p")) == ("r1",)
    assert normal_form(("r2", "r1p")) == ("r1p", "r2")
    assert normal_form(("r1", "r2")) == ("r1", "r2")
    assert normal_form(("r2", "r1p")) != ("r2", "r1p")


# -- growth counts ---------------------------------------------------------------


def test_sphere_counts_follow_the_rational_growth_series():
    assert tuple(racg_sphere_count(k) for k in range(6)) == RACG_SPHERES
    for k in range(3, 13):
        assert racg_sphere_count(k) == 6 * racg_sphere_count(k - 1) - 5 * racg_sphere_count(k - 2)


def test_ball_counts_are_partial_sums():
    for k in range(8):
        assert racg_ball_count(k) == sum(racg_sphere_count(j) for j in range(k + 1))
        assert free_ball_count(k) == sum(free_sphere_count(j) for j in range(k + 1))
    assert racg_ball_count(10) == 21972645
    assert free_ball_count(10) == 2 * 3**10 - 1


def test_free_sphere_counts_are_four_times_powers_of_three():
    assert free_sphere_count(0) == 1
    for k in range(1, 12):
        assert free_sphere_count(k) == 4 * 3 ** (k - 1)


def test_brute_force_normal_form_count_matches_growth_series():
    """Filtering all strings of length three reproduces the sphere count."""
    strings = itertools.product(GENERATOR_NAMES, repeat=3)
    count = sum(1 for letters in strings if normal_form(letters) == letters)
    assert count == racg_sphere_count(3)


def test_automaton_masks_cover_all_letters():
    masks, _ = shortlex_automaton_masks()
    assert len(masks) == len(GENERATOR_NAMES)


# -- enumeration ------------------------------------------------------------------


def test_enumerated_group_ball_is_exact():
    """Normal forms of length at most four map to pairwise distinct isometries."""
    ball = list(enumerate_racg_ball(4))
    assert len(ball) == racg_ball_count(4)
    assert all(normal_form(word) == word for word in ball)
    by_length = {}
    for word in ball:
        by_length[len(word)] = by_length.get(len(word), 0) + 1
    assert by_length == {k: racg_sphere_count(k) for k in range(5)}
    elements = {evaluate_word(word) for word in ball}
    assert len(elements) == len(ball)


def test_enumerated_free_ball_is_exact():
    ball = list(enumerate_free_ball(4))
    assert len(ball) == free_ball_count(4)
    for word in ball:
        assert all(x != y for x, y in zip(word, word[1:]))
    elements = {evaluate_word(free_to_face_word(word)) for word in ball}
    assert len(elements) == len(ball)


def test_enumeration_guards_reject_oversized_balls():
    with pytest.raises(MemoryGuardError):
        list(enumerate_racg_ball(10))
    with pytest.raises(MemoryGuardError):
        list(enumerate_free_ball(21))
    with pytest.raises(DomainError):
        list(enumerate_free_ball(-1))


# -- retraction onto the free product ----------------------------------------------


def test_face_letters_die_and_perp_letters_survive():
    for k, letter in enumerate(FREE_LETTERS, start=1):
        assert perp_image((f"r{k}",)) == ()
        assert perp_image((f"r{k}p",)) == (letter,)


@given(face_words)
def test_perp_image_is_constant_on_normal_form_classes(word):
    assert perp_image(word) == perp_image(normal_form(word))


@given(face_words, face_words)
def test_perp_image_is_a_homomorphism(left, right):
    combined = perp_image(left + right)
    assert combined == _free_reduce(perp_image(left) + perp_image(right))


@given(face_words)
def test_perp_kernel_matches_trivial_image(word):
    """Kernel membership, an empty perp image, is a property of the element:
    a word and its normal form have the same perp image."""
    assert perp_image(word) == perp_image(normal_form(word))


@given(free_words)
def test_face_embedding_lies_in_perp_kernel(word):
    assert not perp_image(free_to_face_word(word))


@given(free_words)
def test_face_embedding_is_injective_on_reduced_words(word):
    reduced = _free_reduce(word)
    image = evaluate_word(free_to_face_word(reduced))
    assert image.is_identity() == (reduced == ())
