import hashlib
from bisect import bisect_right

import numpy as np
import pytest

from synth_reference import reference_generate_score, reference_render_performer
from pianist_id.alignment import align_pair, build_table
from pianist_id.cli import main
from pianist_id.evaluation import ExperimentConfig
from pianist_id.features import compute_norm, deviations, performer_stream
from pianist_id.midi_io import Performance, write_smf
from pianist_id.synth import (
    MIN_DURATION,
    MIN_NOTE_GAP,
    PerformerProfile,
    VelocityShift,
    benchmark,
    default_profiles,
    generate_score,
    render_performer,
)

IDENTITY = PerformerProfile()

COLUMNS = ("onsets", "offsets", "pitches", "dynamics")


def edge_profiles(seed):
    """Profiles that reach every branch of the renderer."""
    return [
        # bimodal velocity; dynamics clamped at both 1 and 127
        PerformerProfile(
            velocity_shift=VelocityShift(-40.0, 45.0, second_mean=50.0, second_weight=0.4),
            seed=seed,
        ),
        # durations cut to MIN_DURATION; jitter wide enough that the onset floor binds
        PerformerProfile(
            tempo_scale=0.5,
            onset_jitter=(-0.05, 0.4),
            articulation_bias=0.3,
            duration_scale=0.5,
            seed=seed + 1,
        ),
        # zero spread
        PerformerProfile(tempo_scale=1.3, duration_scale=1.3, seed=seed + 2),
        # a second mode that is never and always taken still draws a random() per note
        PerformerProfile(
            onset_jitter=(0.01, 0.02),
            velocity_shift=VelocityShift(3.0, 2.0, second_mean=-9.0, second_weight=0.0),
            seed=seed + 3,
        ),
        PerformerProfile(
            onset_jitter=(0.01, 0.02),
            velocity_shift=VelocityShift(3.0, 2.0, second_mean=-9.0, second_weight=1.0),
            seed=seed + 4,
        ),
        # zero spreads with a second mode
        PerformerProfile(
            tempo_scale=0.8,
            velocity_shift=VelocityShift(4.0, 0.0, second_mean=-4.0, second_weight=0.5),
            duration_scale=0.8,
            seed=seed + 5,
        ),
    ]


def assert_same_notes(got, expected):
    assert (got.performer_id, got.piece_id) == (expected.performer_id, expected.piece_id)
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert write_smf(got) == write_smf(expected)


class TestGenerateScore:
    def test_same_seed_reproduces_identical_score(self):
        assert generate_score(200, seed=4) == generate_score(200, seed=4)

    def test_different_seeds_differ(self):
        assert generate_score(200, seed=4) != generate_score(200, seed=5)

    def test_exact_note_count(self):
        for n in (2, 37, 16980):
            assert len(generate_score(n, seed=1).notes) == n

    def test_invariants_hold_over_many_seeds(self):
        for seed in range(1000):
            score = generate_score(40, seed=seed)  # Performance validates on build
            pitches = [n.pitch for n in score.notes]
            dynamics = [n.dynamic for n in score.notes]
            assert min(pitches) >= 36 and max(pitches) <= 96
            assert min(dynamics) >= 40 and max(dynamics) <= 100

    def test_contains_chords_and_plausible_iois(self):
        score = generate_score(3000, seed=2)
        onsets = np.asarray([n.onset for n in score.notes])
        distinct = np.unique(onsets)
        assert len(distinct) < len(onsets)  # some shared onsets (chords)
        iois = np.diff(distinct)
        assert iois.min() >= 0.1 - 1e-9 and iois.max() <= 1.0 + 1e-9


class TestRenderPerformer:
    def test_identity_profile_returns_the_score(self):
        score = generate_score(300, seed=6)
        rendered = render_performer(score, IDENTITY, "p")
        assert rendered.notes == score.notes

    def test_tempo_scale_stretches_every_ioi(self):
        score = generate_score(200, seed=7)
        profile = PerformerProfile(tempo_scale=1.1)
        rendered = render_performer(score, profile, "p")
        score_onsets = np.unique([n.onset for n in score.notes])
        rendered_onsets = np.unique([n.onset for n in rendered.notes])
        np.testing.assert_allclose(
            np.diff(rendered_onsets), 1.1 * np.diff(score_onsets), rtol=1e-12
        )

    def test_note_order_and_pitches_preserved(self):
        score = generate_score(400, seed=8)
        profile = PerformerProfile(
            tempo_scale=0.9,
            onset_jitter=(0.01, 0.02),
            velocity_shift=VelocityShift(5.0, 3.0),
            articulation_bias=0.01,
            duration_scale=0.8,
            seed=99,
        )
        rendered = render_performer(score, profile, "p")
        assert [n.pitch for n in rendered.notes] == [n.pitch for n in score.notes]
        assert len(rendered.notes) == len(score.notes)

    def test_rendered_performance_aligns_to_score_as_identity(self):
        score = generate_score(500, seed=9)
        profile = default_profiles(3, base_seed=9)[0]
        rendered = render_performer(score, profile, "p")
        al = align_pair(score, rendered)
        assert al.pairs == tuple((i, i) for i in range(len(score.notes)))
        assert al.total_cost == 0.0

    def test_chord_notes_share_one_jitter_draw(self):
        score = generate_score(600, seed=10)
        profile = PerformerProfile(onset_jitter=(0.0, 0.05), seed=3)
        rendered = render_performer(score, profile, "p")
        score_onsets = np.asarray([n.onset for n in score.notes])
        rendered_onsets = np.asarray([n.onset for n in rendered.notes])
        # same-onset groups in the score stay same-onset after rendering
        for onset in np.unique(score_onsets):
            group = rendered_onsets[score_onsets == onset]
            assert np.all(group == group[0])

    def test_dynamics_stay_in_midi_range(self):
        score = generate_score(300, seed=11)
        profile = PerformerProfile(velocity_shift=VelocityShift(80.0, 30.0), seed=1)
        rendered = render_performer(score, profile, "p")
        dynamics = [n.dynamic for n in rendered.notes]
        assert min(dynamics) >= 1 and max(dynamics) <= 127

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            PerformerProfile(tempo_scale=2.5)
        with pytest.raises(ValueError):
            PerformerProfile(onset_jitter=(0.0, -0.1))
        with pytest.raises(ValueError):
            VelocityShift(stddev=-1.0)



NON_FINITE_FIELDS = [
    ("mean", lambda v: VelocityShift(mean=v)),
    ("stddev", lambda v: VelocityShift(stddev=v)),
    ("second_mean", lambda v: VelocityShift(second_mean=v, second_weight=0.5)),
    ("second_weight", lambda v: VelocityShift(second_mean=1.0, second_weight=v)),
    ("tempo_scale", lambda v: PerformerProfile(tempo_scale=v)),
    ("onset_jitter", lambda v: PerformerProfile(onset_jitter=(v, 0.01))),
    ("onset_jitter", lambda v: PerformerProfile(onset_jitter=(0.0, v))),
    ("articulation_bias", lambda v: PerformerProfile(articulation_bias=v)),
    ("duration_scale", lambda v: PerformerProfile(duration_scale=v)),
]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "name, build",
    NON_FINITE_FIELDS,
    ids=[f"{name}-{i}" for i, (name, _) in enumerate(NON_FINITE_FIELDS)],
)
def test_non_finite_profile_fields_are_rejected_by_name(name, build, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
        build(value)


class TestAgainstNoteByNoteReference:
    def test_scores_and_renders_equal_the_reference_bit_for_bit(self):
        floor_bound = clamped_low = clamped_high = at_min_duration = cut_chords = 0
        second_weights = set()  # None for the draw plan without a second mode
        for seed in range(40):
            # short scores often end in a chord cut short to the note count
            for n_notes in (150 + 7 * seed, 2 + seed % 11):
                score = generate_score(n_notes, seed)
                assert_same_notes(score, reference_generate_score(n_notes, seed))
                cut_chords += bool(generate_score(n_notes + 1, seed).onsets[-1] == score.onsets[-1])
                profiles = default_profiles(3, base_seed=seed) + edge_profiles(seed)
                for i, profile in enumerate(profiles):
                    rendered = render_performer(score, profile, f"p{i}")
                    assert_same_notes(rendered, reference_render_performer(score, profile, f"p{i}"))
                    chord_onsets = np.unique(rendered.onsets)
                    floor_bound += int(np.sum(chord_onsets[1:] == chord_onsets[:-1] + MIN_NOTE_GAP))
                    clamped_low += int(np.sum(rendered.dynamics == 1))
                    clamped_high += int(np.sum(rendered.dynamics == 127))
                    durations = rendered.offsets - rendered.onsets
                    at_min_duration += int(np.sum(np.isclose(durations, MIN_DURATION)))
                    shift = profile.velocity_shift
                    second_weights.add(None if shift.second_mean is None else shift.second_weight)
        assert min(floor_bound, clamped_low, clamped_high, at_min_duration, cut_chords) > 0
        assert {None, 0.0, 0.35, 1.0} <= second_weights

    def test_unnamed_render_and_empty_score(self):
        score = generate_score(40, seed=3)
        assert_same_notes(
            render_performer(score, edge_profiles(3)[0]),
            reference_render_performer(score, edge_profiles(3)[0]),
        )
        empty = Performance.from_columns("score", "empty", [], [], [], [])
        assert len(render_performer(empty, default_profiles(3)[2])) == 0


class TestNumpyDrawEquivalences:
    """The numpy identities that let ``synth`` draw the reference's stream with cheaper calls.

    Each case draws from two generators of one seed, one each way, and needs the
    same values and the same generator state after."""

    @staticmethod
    def generators(seed):
        return np.random.default_rng(seed), np.random.default_rng(seed)

    @staticmethod
    def assert_in_step(a, b):
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 7, 401])
    @pytest.mark.parametrize(
        "probabilities", [(0.82, 0.13, 0.05), (0.5, 0.0, 0.5), (1.0,), (0.1, 0.2, 0.3, 0.4)]
    )
    def test_choice_with_p_is_a_bisect_of_one_random(self, seed, probabilities):
        a, b = self.generators(seed)
        cumulative = np.cumsum(probabilities)
        cdf = (cumulative / cumulative[-1]).tolist()
        items = tuple(range(10, 10 + len(probabilities)))
        for _ in range(500):
            assert int(a.choice(items, p=probabilities)) == items[bisect_right(cdf, b.random())]
        self.assert_in_step(a, b)

    @pytest.mark.parametrize("seed", [0, 1, 7, 401])
    @pytest.mark.parametrize("low, high", [(0.1, 1.0), (0.62, 0.74), (-3.0, 5.5), (0.5, 0.5)])
    def test_uniform_is_its_arithmetic_on_random(self, seed, low, high):
        a, b = self.generators(seed)
        for _ in range(500):
            assert a.uniform(low, high) == low + (high - low) * b.random()
        self.assert_in_step(a, b)

    @pytest.mark.parametrize("seed", [0, 1, 7, 401])
    @pytest.mark.parametrize("loc, scale", [(0.0, 1.0), (-8.0, 3.0), (0.012, 0.006), (4.0, 0.0)])
    def test_normal_is_loc_plus_scale_times_a_standard_normal(self, seed, loc, scale):
        a, b = self.generators(seed)
        for _ in range(500):
            assert a.normal(loc, scale) == loc + scale * b.standard_normal()
        # the array form, as the renderer uses it
        z = b.standard_normal(500)
        assert np.array_equal([a.normal(loc, scale) for _ in range(500)], loc + scale * z)
        self.assert_in_step(a, b)

    @pytest.mark.parametrize("seed", [0, 1, 7, 401])
    @pytest.mark.parametrize("k", [0, 1, 2, 3000])
    def test_standard_normal_of_k_is_k_scalar_draws(self, seed, k):
        a, b = self.generators(seed)
        drawn = a.standard_normal(k)
        assert drawn.tobytes() == np.array([b.standard_normal() for _ in range(k)]).tobytes()
        self.assert_in_step(a, b)


def tree_sha256(root):
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "seed, expected",
    [
        (7, "9151f4faa614b68a40304f65e905279d16fbda049ba1f1d1cb0d6c203a01e48d"),
        (401, "f119389457e2f64546c7b96c60d3d484cd0fe96358f090c6ccb2b82c277195e2"),
    ],
)
def test_synth_command_output_is_pinned(tmp_path, seed, expected):
    # every file `pianist-id synth` writes (SMF, note tables, profiles) at 3 x 200 notes
    args = ["synth", "--performers", "3", "--notes", "200", "--seed", str(seed)]
    assert main(args + ["--out", str(tmp_path)]) == 0
    assert tree_sha256(tmp_path) == expected


class TestDeviationGroundTruth:
    def test_opposite_jitter_means_separate_ot_deviations(self):
        score = generate_score(2000, seed=12)
        early = PerformerProfile(onset_jitter=(-0.02, 0.004), seed=21)
        late = PerformerProfile(onset_jitter=(0.02, 0.004), seed=22)
        perfs = [
            render_performer(score, early, "early"),
            render_performer(score, late, "late"),
        ]
        table, _ = build_table(perfs, reference=score)
        norm = compute_norm(table)
        dev_early = deviations(performer_stream(table, "early"), norm, "OT").values
        dev_late = deviations(performer_stream(table, "late"), norm, "OT").values
        gap = abs(dev_early.mean() - dev_late.mean())
        assert gap > 6 * max(dev_early.std(), dev_late.std())

    def test_empirical_deviation_means_match_profiles(self):
        # tempo and duration neutral so OT/DL deviations isolate jitter/velocity
        score = generate_score(4000, seed=13)
        jitter_means = (-0.02, 0.01)
        velocity_means = (-6.0, 4.0)
        profiles = [
            PerformerProfile(
                onset_jitter=(jitter_means[i], 0.005),
                velocity_shift=VelocityShift(velocity_means[i], 2.0),
                seed=31 + i,
            )
            for i in range(2)
        ]
        perfs = [render_performer(score, p, f"p{i}") for i, p in enumerate(profiles)]
        table, _ = build_table(perfs, reference=score)
        norm = compute_norm(table)
        n_onset_groups = len({n.onset for n in score.notes})
        for i, pid in enumerate(("p0", "p1")):
            stream = performer_stream(table, pid)
            ot = deviations(stream, norm, "OT").values
            expected_ot = np.mean(jitter_means) - jitter_means[i]
            se = ot.std() / np.sqrt(n_onset_groups)  # chord notes share jitter draws
            assert abs(ot.mean() - expected_ot) < 3 * se
            dl = deviations(stream, norm, "DL").values
            expected_dl = np.mean(velocity_means) - velocity_means[i]
            se_dl = dl.std() / np.sqrt(len(dl))
            assert abs(dl.mean() - expected_dl) < 3 * se_dl + 0.5  # velocity rounding


class TestBenchmark:
    def test_identical_profiles_and_seeds_hit_chance_level(self):
        profile = PerformerProfile(onset_jitter=(0.0, 0.01), seed=5)
        result = benchmark(
            2,
            400,
            profiles=[profile, profile],
            config=ExperimentConfig(model_family="histogram", feature_set=("OT",), n_groups=4),
            seed=14,
        )
        diagonal = np.diag(result.report.normalized_confusion())
        assert diagonal.mean() == pytest.approx(0.5)

    def test_benchmark_is_deterministic(self):
        a = benchmark(3, 400, seed=15)
        b = benchmark(3, 400, seed=15)
        assert a.report.to_json() == b.report.to_json()

    def test_shrinking_separation_never_helps(self):
        precisions = []
        for separation in (1.0, 0.75, 0.5, 0.25, 0.1):
            profiles = default_profiles(4, base_seed=16, separation=separation)
            result = benchmark(4, 1200, profiles=profiles, seed=16)
            precisions.append(result.report.scores.macro_precision)
        for earlier, later in zip(precisions, precisions[1:]):
            assert later <= earlier + 0.05

    def test_separability_stats_present(self):
        result = benchmark(3, 500, seed=17)
        assert "pearson_otd_nd" in result.separability
        assert set(result.separability["per_performer"]) == set(result.report.performer_ids)
