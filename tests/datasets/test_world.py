"""Tests for the latent world model."""

import numpy as np
import pytest

from repro.datasets.world import (
    COARSE_GENRES,
    RAW_SUBGENRES,
    UBIQUITOUS_GENRES,
    LatentWorld,
    WorldConfig,
)
from repro.errors import ConfigurationError
from repro.rng import make_rng


SMALL = WorldConfig(
    n_books=150, n_authors=60, n_bct_users=40, n_anobii_users=120, seed=11
)


@pytest.fixture(scope="module")
def world():
    return LatentWorld(SMALL)


class TestConfigValidation:
    def test_too_few_books(self):
        with pytest.raises(ConfigurationError):
            WorldConfig(n_books=3)

    def test_too_many_authors(self):
        with pytest.raises(ConfigurationError):
            WorldConfig(n_authors=10**9)

    def test_bad_catalogue_shares(self):
        with pytest.raises(ConfigurationError):
            WorldConfig(share_in_both=0.9, share_bct_only=0.5)

    def test_bad_activity_bounds(self):
        with pytest.raises(ConfigurationError):
            WorldConfig(min_activity=10, max_activity=5)


class TestGenreStructure:
    def test_genre_shares_sum_to_one(self, world):
        assert world.genre_shares.sum() == pytest.approx(1.0)

    def test_41_raw_genres(self):
        raw = sum(len(subs) for subs in RAW_SUBGENRES.values())
        assert raw + len(UBIQUITOUS_GENRES) == 41

    def test_every_coarse_genre_has_subgenres_and_words(self):
        for name, _ in COARSE_GENRES:
            assert name in RAW_SUBGENRES
            assert len(RAW_SUBGENRES[name]) >= 2


class TestBooks:
    def test_sizes(self, world):
        assert world.n_books == SMALL.n_books
        assert len(world.book_titles) == SMALL.n_books
        assert len(world.book_plots) == SMALL.n_books

    def test_primary_genre_is_author_genre(self, world):
        assert (
            world.book_genre == world.author_genre[world.book_author]
        ).all()

    def test_secondary_genre_differs_from_primary(self, world):
        has_secondary = world.book_secondary >= 0
        assert (
            world.book_secondary[has_secondary]
            != world.book_genre[has_secondary]
        ).all()

    def test_popularity_positive(self, world):
        assert (world.book_popularity > 0).all()

    def test_catalogue_membership_partition(self, world):
        # Every book is in at least one source; overlap is the majority.
        in_any = world.book_in_bct | world.book_in_anobii
        assert in_any.all()
        both = (world.book_in_bct & world.book_in_anobii).mean()
        assert both > 0.5

    def test_communities_in_range(self, world):
        assert world.book_community.min() >= 0
        assert world.book_community.max() < SMALL.n_communities


class TestUsers:
    def test_user_counts(self, world):
        assert world.n_users == SMALL.n_bct_users + SMALL.n_anobii_users
        sources = {user.source for user in world.users}
        assert sources == {"bct", "anobii"}

    def test_user_ids_unique(self, world):
        ids = [user.user_id for user in world.users]
        assert len(set(ids)) == len(ids)

    def test_genre_probs_normalised(self, world):
        for user in world.users[:20]:
            assert user.genre_probs.sum() == pytest.approx(1.0)

    def test_activity_bounds(self, world):
        for user in world.users:
            assert SMALL.min_activity <= user.activity <= SMALL.max_activity

    def test_community_affinity_normalised(self, world):
        for user in world.users[:20]:
            assert user.community_affinity.sum() == pytest.approx(1.0)
            assert user.drift_affinity.sum() == pytest.approx(1.0)


class TestReadings:
    def test_readings_stay_in_source_catalogue(self, world):
        for user in world.users[:40]:
            membership = (
                world.book_in_bct if user.source == "bct" else world.book_in_anobii
            )
            for book, _ in user.readings:
                assert membership[book]

    def test_days_sorted(self, world):
        for user in world.users[:40]:
            days = [day for _, day in user.readings]
            assert days == sorted(days)

    def test_dislikes_only_for_anobii(self, world):
        for user in world.users:
            if user.source == "bct":
                assert user.dislikes == []

    def test_repeats_only_for_bct(self, world):
        """Anobii users rate a book once; BCT users may re-borrow."""
        for user in world.users:
            books = [book for book, _ in user.readings]
            if user.source == "anobii":
                assert len(books) == len(set(books))

    def test_some_bct_user_has_repeats(self, world):
        repeats = 0
        for user in world.users:
            if user.source == "bct":
                books = [book for book, _ in user.readings]
                repeats += len(books) - len(set(books))
        assert repeats > 0


class TestDeterminism:
    def test_same_seed_same_world(self):
        first = LatentWorld(SMALL)
        second = LatentWorld(SMALL)
        assert first.book_titles == second.book_titles
        assert (first.book_author == second.book_author).all()
        assert [u.readings for u in first.users[:10]] == [
            u.readings for u in second.users[:10]
        ]

    def test_different_seed_different_world(self):
        other = LatentWorld(
            WorldConfig(
                n_books=150, n_authors=60, n_bct_users=40,
                n_anobii_users=120, seed=12,
            )
        )
        base = LatentWorld(SMALL)
        assert base.book_titles != other.book_titles


class TestRawGenreVotes:
    def test_votes_cover_primary_subgenres(self, world):
        rng = make_rng(0)
        book = 0
        votes = world.raw_genre_votes(book, rng)
        primary_subs = set(RAW_SUBGENRES[world.genre_names[world.book_genre[book]]])
        assert primary_subs & set(votes)

    def test_votes_are_positive_ints(self, world):
        rng = make_rng(0)
        for book in range(10):
            for genre, count in world.raw_genre_votes(book, rng).items():
                assert isinstance(count, int) and count >= 1
