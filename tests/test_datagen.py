import pytest

from dptraj.datagen import GenConfig, generate, planted_routes
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
