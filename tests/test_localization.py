"""Unit tests for clustering, the angular solver, and error metrics."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import CameraIntrinsics, Pose
from repro.localization import (
    AngularLocalizer,
    LocalizationProblem,
    dbscan_labels,
    error_by_axis,
    largest_cluster,
    localization_errors,
)
from repro.localization.solver import (
    _angular_residuals,
    _population_energy,
    _ray_directions,
    _soft_l1_energy,
)
from tests.reference.dbscan_reference import dbscan_labels_reference
from tests.reference.solver_scipy_de import (
    make_problem,
    scalar_objective,
    seeded_problems,
    select_pairs_listcomp,
    solve_scipy_de,
)


class TestDbscan:
    def test_two_clusters_found(self, rng):
        a = rng.normal(0, 0.2, (30, 3))
        b = rng.normal(10, 0.2, (20, 3))
        labels = dbscan_labels(np.vstack([a, b]), eps=1.0, min_samples=4)
        assert len(set(labels[labels >= 0])) == 2
        assert len(set(labels[:30])) == 1

    def test_noise_labeled_minus_one(self, rng):
        cluster = rng.normal(0, 0.1, (20, 3))
        outlier = np.array([[50.0, 50.0, 50.0]])
        labels = dbscan_labels(np.vstack([cluster, outlier]), eps=1.0, min_samples=4)
        assert labels[-1] == -1

    def test_largest_cluster_picks_biggest(self, rng):
        big = rng.normal(0, 0.2, (40, 3))
        small = rng.normal(10, 0.2, (10, 3))
        kept = largest_cluster(np.vstack([big, small]), eps=1.0, min_samples=4)
        assert set(kept.tolist()) <= set(range(40))
        assert kept.size >= 35

    def test_all_noise_empty(self, rng):
        scattered = rng.uniform(0, 100, (10, 3))
        assert largest_cluster(scattered, eps=0.1, min_samples=4).size == 0

    def test_empty_input(self):
        assert dbscan_labels(np.empty((0, 3)), eps=1.0).size == 0

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            dbscan_labels(np.zeros((3, 3)), eps=0.0)

    def test_shared_border_point_joins_lowest_cluster(self):
        # Two dense groups 2 apart; the point midway is within eps of one
        # core of each but has too few neighbours to be a core itself.
        left = np.array([[0.0, 0, 0], [-0.5, 0, 0], [-0.5, 0.5, 0], [-0.5, -0.5, 0]])
        right = left * [-1, 1, 1] + [2.0, 0, 0]
        middle = np.array([[1.0, 0, 0]])
        for points, border_label in (
            (np.vstack([left, middle, right]), 0),
            (np.vstack([right, middle, left]), 0),
        ):
            labels = dbscan_labels(points, eps=1.0, min_samples=4)
            assert labels[4] == border_label
            np.testing.assert_array_equal(
                labels, dbscan_labels_reference(points, eps=1.0, min_samples=4)
            )

    def test_tied_clusters_go_to_the_lowest_label(self):
        near = np.zeros((5, 3))
        far = np.full((5, 3), 10.0)
        kept = largest_cluster(np.vstack([far, near]), eps=1.0, min_samples=3)
        np.testing.assert_array_equal(kept, np.arange(5))

    @given(
        seed=st.integers(0, 2**16),
        count=st.integers(0, 60),
        layout=st.sampled_from(["uniform", "lattice", "duplicates", "blobs"]),
        eps=st.sampled_from([0.5, 1.0, 1.5, 3.0]),
        min_samples=st.integers(1, 7),
    )
    @settings(max_examples=150, deadline=None)
    def test_labels_equal_breadth_first_reference(
        self, seed, count, layout, eps, min_samples
    ):
        """Lattices put points exactly eps apart; duplicates sit at distance 0."""
        rng = np.random.default_rng(seed)
        if layout == "uniform":
            points = rng.uniform(0, 6, (count, 3))
        elif layout == "lattice":
            points = rng.integers(0, 4, (count, 3)).astype(np.float64) * 0.5
        elif layout == "duplicates":
            points = rng.uniform(0, 4, (count // 3 + 1, 3)).repeat(3, axis=0)[:count]
        else:
            centers = rng.uniform(0, 12, (3, 3))
            points = centers[rng.integers(0, 3, count)] + rng.normal(0, 0.6, (count, 3))
        labels = dbscan_labels(points, eps=eps, min_samples=min_samples)
        np.testing.assert_array_equal(
            labels, dbscan_labels_reference(points, eps=eps, min_samples=min_samples)
        )


class TestAngularLocalizer:
    def test_recovers_camera_position(self, rng):
        true_pose = Pose(x=8.0, y=6.0, z=1.5, yaw=0.7)
        problem = make_problem(true_pose, 25, rng)
        solution = AngularLocalizer(seed=1).solve(problem)
        assert solution.pose.position_error(true_pose) < 1.0

    def test_recovers_orientation(self, rng):
        true_pose = Pose(x=8.0, y=6.0, z=1.5, yaw=0.7)
        problem = make_problem(true_pose, 25, rng, pixel_noise=0.1)
        solution = AngularLocalizer(seed=1).solve(problem)
        assert abs(solution.pose.yaw - true_pose.yaw) < 0.15

    def test_degrades_gracefully_with_noise(self, rng):
        true_pose = Pose(x=10.0, y=10.0, z=1.5, yaw=-0.4)
        quiet = AngularLocalizer(seed=2).solve(
            make_problem(true_pose, 25, rng, pixel_noise=0.1)
        )
        noisy = AngularLocalizer(seed=2).solve(
            make_problem(true_pose, 25, rng, pixel_noise=4.0)
        )
        assert quiet.residual <= noisy.residual + 0.05

    def test_too_few_points_falls_back(self):
        problem = LocalizationProblem(
            pixels=np.zeros((2, 2)),
            world_points=np.zeros((2, 3)),
            intrinsics=CameraIntrinsics(),
            bounds_low=np.zeros(3),
            bounds_high=np.ones(3) * 10,
        )
        solution = AngularLocalizer().solve(problem)
        assert not solution.converged
        assert solution.pose.x == pytest.approx(5.0)

    def test_converges_on_a_normal_problem(self, rng):
        problem = make_problem(Pose(x=8.0, y=6.0, z=1.5, yaw=0.7), 25, rng)
        assert AngularLocalizer(seed=1).solve(problem).converged

    def test_pair_budget(self, rng):
        problem = make_problem(Pose(x=5, y=5, z=1.5), 30, rng)
        solution = AngularLocalizer(max_pairs=40, seed=0).solve(problem)
        assert solution.num_pairs <= 40

    def test_alignment_validation(self):
        with pytest.raises(ValueError):
            LocalizationProblem(
                pixels=np.zeros((3, 2)),
                world_points=np.zeros((4, 3)),
                intrinsics=CameraIntrinsics(),
                bounds_low=np.zeros(3),
                bounds_high=np.ones(3),
            )


class TestPairSelection:
    def test_matches_list_comprehension(self):
        localizer = AngularLocalizer(max_pairs=10**6)
        rng = np.random.default_rng(0)
        for count in range(3, 120):
            np.testing.assert_array_equal(
                localizer._select_pairs(count, rng),
                select_pairs_listcomp(10**6, count, rng),
            )

    @pytest.mark.parametrize("count", [14, 30, 58, 119])
    def test_subsampled_matches_under_same_seed(self, count):
        localizer = AngularLocalizer(max_pairs=80)
        ours = localizer._select_pairs(count, np.random.default_rng(11))
        theirs = select_pairs_listcomp(80, count, np.random.default_rng(11))
        assert ours.shape == (80, 2)
        np.testing.assert_array_equal(ours, theirs)


class TestScipyDeParity:
    """The numpy evolution against the scipy solve it replaced."""

    def test_population_energy_matches_scalar_objective(self):
        rng = np.random.default_rng(3)
        problem = make_problem(Pose(x=9.0, y=7.0, z=1.5, yaw=1.1), 25, rng)
        pairs = AngularLocalizer()._select_pairs(problem.num_points, rng)
        rays = _ray_directions(problem.pixels, problem.intrinsics)
        residuals = _angular_residuals(problem.world_points, rays, pairs)
        population = rng.uniform(problem.bounds_low, problem.bounds_high, (60, 3))
        scalar_residuals, objective = scalar_objective(problem, pairs)

        energy = _soft_l1_energy(residuals(population))
        expected = [objective(member) for member in population]
        np.testing.assert_allclose(energy, expected, rtol=1e-12)
        np.testing.assert_allclose(
            residuals(population[0]), scalar_residuals(population[0]), rtol=1e-12
        )

    def test_gram_energy_matches_direct_form(self):
        rng = np.random.default_rng(3)
        problem = make_problem(Pose(x=9.0, y=7.0, z=1.5, yaw=1.1), 25, rng)
        pairs = AngularLocalizer()._select_pairs(problem.num_points, rng)
        rays = _ray_directions(problem.pixels, problem.intrinsics)
        residuals = _angular_residuals(problem.world_points, rays, pairs)
        energy = _population_energy(problem.world_points, rays, pairs)
        population = rng.uniform(problem.bounds_low, problem.bounds_high, (60, 3))
        np.testing.assert_allclose(
            energy(population), _soft_l1_energy(residuals(population)), rtol=1e-12
        )
        # Near the solution each term's 1 + r^2 rounds at about one ulp of
        # 1 in both forms, so they agree to that floor, not relatively.
        near = Pose(x=9.0, y=7.0, z=1.5).position + rng.normal(0, 0.05, (20, 3))
        np.testing.assert_allclose(
            energy(near),
            _soft_l1_energy(residuals(near)),
            rtol=1e-12,
            atol=2 * pairs.shape[0] * np.finfo(np.float64).eps,
        )

    def test_gram_energy_finite_on_a_world_point(self):
        rng = np.random.default_rng(5)
        problem = make_problem(Pose(x=6.0, y=9.0, z=1.5, yaw=-0.4), 20, rng)
        pairs = AngularLocalizer()._select_pairs(problem.num_points, rng)
        rays = _ray_directions(problem.pixels, problem.intrinsics)
        energy = _population_energy(problem.world_points, rays, pairs)
        members = np.vstack(
            [problem.world_points[pairs[0, 0]], problem.world_points[pairs[:4, 1]]]
        )
        assert np.isfinite(energy(members)).all()

    def test_evolve_bit_identical_to_direct_form(self):
        localizer = AngularLocalizer(seed=0)
        for problem, _ in seeded_problems(40, 25):
            rng = np.random.default_rng(localizer.seed)
            pairs = localizer._select_pairs(problem.num_points, rng)
            rays = _ray_directions(problem.pixels, problem.intrinsics)
            residuals = _angular_residuals(problem.world_points, rays, pairs)
            state = rng.bit_generator.state
            direct = localizer._evolve(
                lambda members: _soft_l1_energy(residuals(members)),
                problem.bounds_low,
                problem.bounds_high,
                rng,
            )
            rng.bit_generator.state = state
            gram = localizer._evolve(
                _population_energy(problem.world_points, rays, pairs),
                problem.bounds_low,
                problem.bounds_high,
                rng,
            )
            assert gram[0].tobytes() == direct[0].tobytes()
            assert gram[1] == direct[1]

    def test_clean_problems_match_reference(self):
        localizer = AngularLocalizer(seed=0)
        for problem, _ in seeded_problems(40, 25):
            ours = localizer.solve(problem).pose.position
            theirs = solve_scipy_de(localizer, problem).pose.position
            assert np.linalg.norm(ours - theirs) < 0.01

    def test_wrong_correspondences_no_worse_than_reference(self):
        localizer = AngularLocalizer(seed=0)
        ours, theirs = [], []
        for problem, truth in seeded_problems(30, 15, wrong=3):
            ours.append(localizer.solve(problem).pose.position_error(truth))
            theirs.append(
                solve_scipy_de(localizer, problem).pose.position_error(truth)
            )
        assert np.median(ours) <= 1.1 * np.median(theirs)

    @given(
        seed=st.integers(0, 2**32 - 1),
        low=st.tuples(*[st.floats(-20.0, 20.0)] * 3),
        size=st.tuples(*[st.floats(0.5, 30.0)] * 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_position_inside_random_box(self, seed, low, size):
        rng = np.random.default_rng(seed)
        pose = Pose(x=8.0, y=6.0, z=1.5, yaw=float(rng.uniform(-np.pi, np.pi)))
        low = np.array(low)
        high = low + np.array(size)
        problem = dataclasses.replace(
            make_problem(pose, 12, rng), bounds_low=low, bounds_high=high
        )
        position = AngularLocalizer(seed=seed).solve(problem).pose.position
        assert np.all(position >= low) and np.all(position <= high)

    def test_same_seed_is_bit_identical(self):
        (problem, _), = seeded_problems(1, 20, wrong=2)
        first = AngularLocalizer(seed=4).solve(problem)
        second = AngularLocalizer(seed=4).solve(problem)
        assert first == second
        assert first.pose.position.tobytes() == second.pose.position.tobytes()


class TestMetrics:
    def test_localization_errors(self):
        estimated = [Pose(x=1.0), Pose(y=2.0)]
        truth = [Pose(), Pose()]
        errors = localization_errors(estimated, truth)
        assert errors.tolist() == [1.0, 2.0]

    def test_error_by_axis(self):
        estimated = [Pose(x=1.0, z=0.5)]
        truth = [Pose()]
        axes = error_by_axis(estimated, truth)
        assert axes["x"][0] == 1.0
        assert axes["y"][0] == 0.0
        assert axes["z"][0] == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            localization_errors([Pose()], [])
