import hashlib

import pytest

from dptraj.datagen import GenConfig, generate, planted_routes
from dptraj.model import write_db
from dptraj.utility import mine_top_k


class TestConfigValidation:
    def test_avg_above_max_rejected(self):
        with pytest.raises(ValueError):
            GenConfig(n_locations=5, n_records=10, avg_len=8, max_len=4)

    def test_route_longer_than_universe_rejected(self):
        with pytest.raises(ValueError):
            GenConfig(
                n_locations=2, n_records=10, avg_len=2, max_len=9,
                n_planted_routes=1, route_length=3,
            )

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            GenConfig(
                n_locations=5, n_records=10, avg_len=2, max_len=9, planted_fraction=1.5
            )


class TestGenerate:
    def test_deterministic(self):
        config = GenConfig(
            n_locations=20, n_records=500, avg_len=4, max_len=30,
            n_planted_routes=3, zipf_skew=0.8, seed=5,
        )
        db1, uni1 = generate(config)
        db2, uni2 = generate(config)
        assert db1.trajectories == db2.trajectories
        assert uni1.tokens == uni2.tokens

    def test_record_count_and_id_range(self):
        config = GenConfig(n_locations=15, n_records=800, avg_len=3, max_len=12, seed=1)
        db, universe = generate(config)
        assert len(db) == 800
        assert len(universe) == 15
        assert all(0 <= loc < 15 for t in db.trajectories for loc in t)

    def test_mean_length_tracks_target(self):
        config = GenConfig(
            n_locations=1012, n_records=120_000, avg_len=6.7, max_len=121, seed=7
        )
        db, _ = generate(config)
        mean = sum(len(t) for t in db.trajectories) / len(db)
        assert abs(mean - 6.7) / 6.7 < 0.05

    def test_max_length_enforced(self):
        config = GenConfig(n_locations=10, n_records=3000, avg_len=5, max_len=8, seed=2)
        db, _ = generate(config)
        assert max(len(t) for t in db.trajectories) <= 8

    def test_uniform_when_unskewed_and_unplanted(self):
        config = GenConfig(n_locations=10, n_records=5000, avg_len=4, max_len=20, seed=3)
        db, _ = generate(config)
        counts = [0] * 10
        for t in db.trajectories:
            for loc in t:
                counts[loc] += 1
        total = sum(counts)
        for c in counts:
            assert abs(c / total - 0.1) < 0.02

    def test_zipf_skew_concentrates_head(self):
        flat = generate(
            GenConfig(n_locations=50, n_records=4000, avg_len=4, max_len=20, seed=4)
        )[0]
        skewed = generate(
            GenConfig(
                n_locations=50, n_records=4000, avg_len=4, max_len=20,
                zipf_skew=1.0, seed=4,
            )
        )[0]

        def head_share(db):
            counts = [0] * 50
            for t in db.trajectories:
                for loc in t:
                    counts[loc] += 1
            return sum(sorted(counts, reverse=True)[:5]) / sum(counts)

        assert head_share(skewed) > head_share(flat) + 0.1

    def test_empty_corpus(self):
        db, universe = generate(
            GenConfig(n_locations=3, n_records=0, avg_len=1, max_len=1)
        )
        assert len(db) == 0
        assert len(universe) == 3

    def test_planted_routes_are_embedded_subsequences(self):
        config = GenConfig(
            n_locations=30, n_records=2000, avg_len=5, max_len=25,
            n_planted_routes=4, planted_fraction=0.4, seed=6,
        )
        db, _ = generate(config)
        routes = planted_routes(config)
        assert len(routes) == 4

        def contains(record, route):
            pos = 0
            for loc in record:
                if loc == route[pos]:
                    pos += 1
                    if pos == len(route):
                        return True
            return False

        for route in routes:
            supporters = sum(1 for t in db.trajectories if contains(t, route))
            # ~200 records per route planted; only trips long enough to ride
            # the whole line support the full route pattern
            assert supporters >= 0.04 * len(db)

    def test_planted_routes_recoverable_by_mining(self):
        config = GenConfig(
            n_locations=60, n_records=8000, avg_len=6.7, max_len=40,
            n_planted_routes=8, planted_fraction=0.4, zipf_skew=0.6, seed=8,
        )
        db, _ = generate(config)
        routes = set(planted_routes(config))
        margin = 150
        mined = {p.locations for p in mine_top_k(db, len(routes) + margin)}
        assert routes <= mined


class TestPinnedCorpus:
    """``write_db`` bytes of small corpora at fixed seeds.

    Any change to a draw, to the record order or to how a planted route
    overrides a record's first stops shows up here.
    """

    RECIPES = {
        "routes_longer_than_max_len": (
            dict(
                n_locations=30, n_records=300, avg_len=3, max_len=5,
                n_planted_routes=3, route_length=8, planted_fraction=0.5,
                zipf_skew=0.5, seed=11,
            ),
            "cebf001de5fc557ea7a705c5337cec4fd8e7da91c32b8d6772954d6bf85afeb9",
        ),
        "no_planted_routes": (
            dict(n_locations=25, n_records=400, avg_len=4, max_len=10, zipf_skew=1.0, seed=12),
            "f346d8406023a4a2e41cb08024f711b468d62a37714c614d45f2475e3649ed75",
        ),
        "all_records_planted": (
            dict(
                n_locations=40, n_records=300, avg_len=4, max_len=9,
                n_planted_routes=4, route_length=5, planted_fraction=1.0,
                route_skew=0.7, seed=13,
            ),
            "b4f0046e9316269c3b8adc64faf73c5ce1462b160f41e6fb0ed353ab9662ef92",
        ),
        "single_record": (
            dict(
                n_locations=10, n_records=1, avg_len=3, max_len=6,
                n_planted_routes=1, route_length=4, planted_fraction=1.0, seed=14,
            ),
            "af1790d2b7cbab15895beedfcc487842a90a45b8b7d268bc2d3ee5b010987a33",
        ),
    }

    @pytest.mark.parametrize("name", sorted(RECIPES))
    def test_corpus_digest(self, tmp_path, name):
        fields, digest = self.RECIPES[name]
        db, universe = generate(GenConfig(**fields))
        path = tmp_path / "corpus.txt"
        write_db(db, universe, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
