"""Detection decoding and the simulated detector."""

import math

import numpy as np
import pytest

from spincam.camera import (
    CameraIntrinsics,
    CameraModel,
    FrameAnnotation,
    NeighborAnnotation,
    annotate_tracks,
    back_project,
    pixel_to_ray,
    project,
)
from spincam.errors import DegenerateBox, OutOfRange
from spincam.geometry import PoseTrack, RobotGeometry
from spincam.perception import (
    GridDetectionMap,
    NoiseModel,
    _ray_pair_position,
    decode_box,
    decode_box_rows,
    decode_detections,
    decode_grid,
    detect_rows,
    encode_grid,
    frame_rng,
    grid_cell_center,
    simulate_detector,
    sphere_distance_from_angle,
)
from spincam.seeding import FrameSeed, frame_seeds


def sphere_silhouette_bbox(center, radius: float, intr: CameraIntrinsics) -> np.ndarray:
    """Exact pixel bbox (u_min, v_min, u_max, v_max) of a sphere whose center
    lies in the y=0 camera plane.

    Horizontal extremes come from rotating the center direction by the tangent
    half-angle inside that plane; vertical extremes from maximizing |y/z| over
    the tangent cone.
    """
    c = np.asarray(center, dtype=float)
    assert c[1] == 0.0, "helper assumes the sphere center lies in the y=0 plane"
    distance = float(np.linalg.norm(c))
    beta = math.asin(radius / distance)
    theta = math.atan2(c[0], c[2])
    u_min = intr.fx * math.tan(theta - beta) + intr.cx
    u_max = intr.fx * math.tan(theta + beta) + intr.cx
    c_hat = c / distance
    e1 = np.array([math.cos(theta), 0.0, -math.sin(theta)])
    e2 = np.array([0.0, 1.0, 0.0])
    best = 0.0
    for phi in np.linspace(0.0, 2.0 * math.pi, 4001):
        ray = c_hat * math.cos(beta) + (e1 * math.cos(phi) + e2 * math.sin(phi)) * math.sin(beta)
        best = max(best, abs(ray[1] / ray[2]))
    return np.array([u_min, intr.cy - intr.fy * best, u_max, intr.cy + intr.fy * best])


class TestSphereDistance:
    def test_half_pi_subtense(self):
        # csc(pi/2) == 1: the sphere center sits one radius away
        assert sphere_distance_from_angle(math.pi, 0.1) == pytest.approx(0.1, abs=1e-15)

    def test_small_angle_value(self):
        assert sphere_distance_from_angle(0.1, 0.05) == pytest.approx(
            0.05 / math.sin(0.05), abs=1e-12
        )

    def test_zero_angle_degenerate(self):
        with pytest.raises(DegenerateBox):
            sphere_distance_from_angle(0.0, 0.1)

    def test_distance_decreases_with_angle(self):
        angles = np.linspace(0.01, math.pi, 200)
        distances = [sphere_distance_from_angle(a, 0.05) for a in angles]
        assert all(d1 > d2 for d1, d2 in zip(distances, distances[1:]))


class TestDecodeBox:
    @pytest.mark.parametrize(
        "center,radius",
        [((0.0, 0.0, 2.0), 0.1), ((0.3, 0.0, 1.5), 0.05), ((-0.5, 0.0, 4.0), 0.05),
         ((0.0, 0.0, 0.5), 0.05)],
    )
    def test_exact_on_analytic_sphere_silhouette(self, center, radius, intr):
        bbox = sphere_silhouette_bbox(center, radius, intr)
        estimate = decode_box(bbox, intr, radius)
        np.testing.assert_allclose(estimate.position, center, atol=1e-6)
        assert np.linalg.norm(estimate.position) == pytest.approx(
            np.linalg.norm(center), abs=1e-6
        )

    def test_zero_width_box_degenerate(self, intr):
        with pytest.raises(DegenerateBox):
            decode_box((100.0, 90.0, 100.0, 110.0), intr, 0.05)

    def test_antipodal_rays_degenerate(self):
        with pytest.raises(DegenerateBox):
            _ray_pair_position(np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]), 0.1)

    def test_box_past_the_lens_fold_is_skipped(self):
        """A box wider than the image of a barrel lens has an edge midpoint
        past the fold, which has no ray; the rows skip it as a degenerate box."""
        intr = CameraIntrinsics(fx=170.0, fy=170.0, cx=160.0, cy=160.0, k1=-0.08)
        wide, inside = (-200.0, 150.0, 100.0, 170.0), (100.0, 150.0, 140.0, 170.0)
        with pytest.raises(OutOfRange):
            decode_box(wide, intr, 0.5)
        decoded = decode_box_rows([wide + (0.9,), inside + (0.9,)], intr, 0.5)
        assert len(decoded) == 1
        np.testing.assert_array_equal(decoded[0], decode_box(inside, intr, 0.5).position)

    def test_positive_depth_always(self, intr):
        rng = np.random.default_rng(0)
        for _ in range(200):
            u1, u2 = np.sort(rng.uniform(1.0, 319.0, 2))
            v1, v2 = np.sort(rng.uniform(1.0, 319.0, 2))
            if u2 - u1 < 1e-6:
                continue
            assert decode_box((u1, v1, u2, v2), intr, 0.05).position[2] > 0.0


def norm_pixel_ray(pixel, intr: CameraIntrinsics) -> np.ndarray:
    """`pixel_to_ray` written with np.linalg.norm."""
    ray = back_project(pixel, 1.0, intr)
    return ray / np.linalg.norm(ray)


def clip_ray_position(a1: np.ndarray, a2: np.ndarray, radius: float) -> np.ndarray:
    """`_ray_pair_position` written with np.clip and np.linalg.norm."""
    cos_alpha = float(np.clip(np.dot(a1, a2), -1.0, 1.0))
    d = sphere_distance_from_angle(math.acos(cos_alpha), radius)
    a_c = 0.5 * (a1 + a2)
    norm = np.linalg.norm(a_c)
    if norm == 0.0:
        raise DegenerateBox("tangent rays are antipodal; direction is undefined")
    return d * a_c / norm


def unit_rows(rng, count: int) -> np.ndarray:
    rows = rng.normal(size=(count, 3))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestScalarKernelsMatchNumpyFormulas:
    """`pixel_to_ray` and `_ray_pair_position` clip with min/max and take
    the norm as the sqrt of a dot; both give the numpy formulas' bits."""

    @pytest.mark.parametrize("k1", (0.0, -0.08, 0.05))
    def test_pixel_to_ray(self, k1):
        intr = CameraIntrinsics(fx=170.0, fy=170.0, cx=160.0, cy=160.0, k1=k1)
        for pixel in np.random.default_rng(1).uniform(0.0, 320.0, (500, 2)).tolist():
            assert pixel_to_ray(pixel, intr).tobytes() == norm_pixel_ray(pixel, intr).tobytes()

    def test_ray_pair_position_on_random_rays(self, intr):
        rng = np.random.default_rng(4)
        pixel_rays = [(pixel_to_ray(p1, intr), pixel_to_ray(p2, intr))
                      for p1, p2 in rng.uniform(0.0, 320.0, (500, 2, 2)).tolist()]
        # any two rays in front of the camera, at acute and obtuse angles
        ahead = unit_rows(rng, 1000)
        ahead[:, 2] = np.abs(ahead[:, 2])
        for a1, a2 in [*pixel_rays, *zip(ahead[:500], ahead[500:])]:
            assert _ray_pair_position(a1, a2, 0.05).tobytes() == \
                clip_ray_position(a1, a2, 0.05).tobytes()

    def test_near_parallel_rays_whose_dot_rounds_above_one_are_degenerate(self):
        rays = unit_rows(np.random.default_rng(5), 2000)
        # a ray and the same ray one ulp longer in x
        pairs = [(a, a + [np.spacing(a[0]), 0.0, 0.0]) for a in rays]
        above = [(a1, a2) for a1, a2 in [*zip(rays, rays), *pairs] if a1.dot(a2) > 1.0]
        assert len(above) > 20
        for a1, a2 in above:
            with pytest.raises(DegenerateBox):
                clip_ray_position(a1, a2, 0.05)
            with pytest.raises(DegenerateBox):
                _ray_pair_position(a1, a2, 0.05)

    def test_antipodal_rays_are_degenerate(self):
        for a in unit_rows(np.random.default_rng(6), 200):
            with pytest.raises(DegenerateBox):
                clip_ray_position(a, -a, 0.05)
            with pytest.raises(DegenerateBox):
                _ray_pair_position(a, -a, 0.05)


def annotation_with(neighbors, frame_id: int = 0) -> FrameAnnotation:
    return FrameAnnotation(frame_id=frame_id, timestamp=0.0, ego_id="r0", neighbors=neighbors)


def neighbor_at(position, intr, robot_id="r1") -> NeighborAnnotation:
    position = np.asarray(position, dtype=float)
    center = project(position, intr)
    return NeighborAnnotation(
        robot_id=robot_id,
        rel_position=position,
        center=center,
        bbox=np.concatenate([center - 2.0, center + 2.0]),
    )


class TestEncodeGrid:
    def test_empty_annotation_gives_zero_map(self, intr):
        gmap = encode_grid(annotation_with([]), intr)
        assert not gmap.confidence.any() and not gmap.depth.any()

    def test_single_neighbor_at_principal_point(self, intr):
        gmap = encode_grid(annotation_with([neighbor_at((0, 0, 1.5), intr)]), intr, rows=5, cols=5)
        assert gmap.confidence[2, 2] == 1.0
        assert gmap.depth[2, 2] == 1.5
        assert gmap.confidence.sum() == 1.0

    def test_cell_collision_keeps_nearer_depth(self, intr):
        near = neighbor_at((0.0, 0.0, 1.0), intr, "r1")
        far = neighbor_at((0.001, 0.0, 2.0), intr, "r2")
        for order in ([near, far], [far, near]):
            gmap = encode_grid(annotation_with(order), intr, rows=5, cols=5)
            assert gmap.depth[2, 2] == 1.0
            assert gmap.confidence.sum() == 1.0


class TestDecodeGrid:
    def test_all_zero_confidence_gives_empty(self, intr):
        assert decode_grid(GridDetectionMap.zeros(), intr) == []

    def test_center_cell_maps_to_principal_axis(self, intr):
        gmap = GridDetectionMap.zeros(5, 5)
        gmap.confidence[2, 2] = 1.0
        gmap.depth[2, 2] = 2.0
        (est,) = decode_grid(gmap, intr)
        np.testing.assert_allclose(est.position, [0.0, 0.0, 2.0], atol=1e-12)

    def test_two_separated_peaks_keep_exact_depths(self, intr):
        near = neighbor_at((-0.5, 0.0, 1.0), intr, "r1")
        far = neighbor_at((0.5, 0.2, 3.0), intr, "r2")
        gmap = encode_grid(annotation_with([near, far]), intr)
        estimates = decode_grid(gmap, intr)
        assert sorted(e.position[2] for e in estimates) == [1.0, 3.0]

    def test_threshold_filters_weak_cells(self, intr):
        gmap = GridDetectionMap.zeros(5, 5)
        gmap.confidence[1, 1] = 0.4
        gmap.depth[1, 1] = 2.0
        assert decode_grid(gmap, intr, threshold=0.5) == []
        assert len(decode_grid(gmap, intr, threshold=0.3)) == 1

    def test_round_trip_within_half_cell(self, intr):
        rng = np.random.default_rng(1)
        rows, cols = 28, 40
        bound_x = (intr.width / cols / 2.0) / intr.fx
        bound_y = (intr.height / rows / 2.0) / intr.fy
        for trial in range(100):
            neighbors = []
            for k in range(int(rng.integers(1, 4))):
                z = rng.uniform(0.5, 4.0)
                x = rng.uniform(-0.85, 0.85) * z * (intr.cx / intr.fx)
                y = rng.uniform(-0.85, 0.85) * z * (intr.cy / intr.fy)
                neighbors.append(neighbor_at((x, y, z), intr, f"r{k + 1}"))
            gmap = encode_grid(annotation_with(neighbors, trial), intr, rows, cols)
            for estimate in decode_grid(gmap, intr):
                deltas = [np.linalg.norm(estimate.position - n.rel_position) for n in neighbors]
                closest = neighbors[int(np.argmin(deltas))]
                z = closest.rel_position[2]
                assert estimate.position[2] == z  # depth channel is exact
                assert abs(estimate.position[0] - closest.rel_position[0]) <= z * bound_x + 1e-12
                assert abs(estimate.position[1] - closest.rel_position[1]) <= z * bound_y + 1e-12


def decode_grid_cell_by_cell(gmap, intr, threshold=0.5):
    """Reference decoder: visit every cell and compare it with its 3x3 window."""
    conf = gmap.confidence
    rows, cols = conf.shape
    estimates = []
    for row in range(rows):
        for col in range(cols):
            value = conf[row, col]
            if value < threshold:
                continue
            window = conf[
                max(0, row - 1) : min(rows, row + 2),
                max(0, col - 1) : min(cols, col + 2),
            ]
            if value < window.max():
                continue
            center = grid_cell_center(row, col, intr, rows, cols)
            estimates.append(back_project(center, float(gmap.depth[row, col]), intr))
    return estimates


def grids_with_plateaus(rng):
    """Sparse grids whose confidences come from a few levels, so that equal
    neighbors (plateaus) and cells exactly at the threshold are common."""
    levels = np.array([0.0, 0.3, 0.5, 0.5, 0.7, 1.0])
    for rows, cols in [(28, 40)] * 40 + [(1, 1), (1, 7), (6, 1), (2, 2), (5, 5)] * 40:
        confidence = np.where(rng.random((rows, cols)) < rng.uniform(0.05, 0.6),
                              rng.choice(levels, size=(rows, cols)), 0.0)
        yield GridDetectionMap(confidence, rng.uniform(0.2, 4.0, size=(rows, cols)))


def corner_and_edge_grids():
    for row, col in [(0, 0), (0, 39), (27, 0), (27, 39), (0, 17), (27, 5), (13, 0), (9, 39)]:
        gmap = GridDetectionMap(np.zeros((28, 40)), np.ones((28, 40)))
        gmap.confidence[row, col] = 0.9
        gmap.depth[row, col] = 1.0 + 0.1 * row + 0.01 * col
        yield gmap
        gmap = GridDetectionMap(gmap.confidence.copy(), gmap.depth.copy())
        gmap.confidence[min(row + 1, 27), col] = 0.9  # a two-cell plateau on the edge
        yield gmap


class TestDecodeGridEquivalence:
    def test_bitwise_equal_to_cell_by_cell_decoder(self, intr):
        rng = np.random.default_rng(11)
        decoded = 0
        grids = [*grids_with_plateaus(rng), *corner_and_edge_grids()]
        for gmap in grids:
            for threshold in (0.5, 0.3, 0.0):
                expected = decode_grid_cell_by_cell(gmap, intr, threshold)
                estimates = decode_grid(gmap, intr, threshold)
                assert [e.position.tolist() for e in estimates] == \
                    [p.tolist() for p in expected]
                decoded += len(estimates)
        assert decoded > 1000

    @pytest.mark.parametrize("channel", ["confidence", "depth"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_cells_rejected(self, channel, value):
        channels = {"confidence": np.zeros((3, 4)), "depth": np.ones((3, 4))}
        channels[channel][1, 2] = value
        with pytest.raises(ValueError, match="finite"):
            GridDetectionMap(**channels)


class TestSimulateDetector:
    def zero_noise(self) -> NoiseModel:
        return NoiseModel(pixel_sigma=0.0, depth_rel_sigma=0.0, miss_rate=0.0,
                          false_positive_rate=0.0, rng_seed=0)

    def cube_annotation(self, intr) -> FrameAnnotation:
        # axis-aligned cubic robot so the sphere model matches the box width
        geom = RobotGeometry(half_extents=np.array([0.05, 0.05, 0.05]), sphere_radius=0.05)
        camera = CameraModel(intrinsics=intr, rotation=[1.0, 0.0, 0.0, 0.0],
                             translation=np.zeros(3), pitch_label="up")
        # two-sample tracks of robots holding still
        quats = np.tile([1.0, 0.0, 0.0, 0.0], (2, 1))
        tracks = [PoseTrack("r0", [0.0, 1.0], np.zeros((2, 3)), quats),
                  PoseTrack("r1", [0.0, 1.0], np.tile([0.2, -0.1, 2.0], (2, 1)), quats)]
        return annotate_tracks(tracks, camera, geom, [0.0]).annotations()[0]

    def test_zero_noise_box_mode_is_identity(self, intr):
        # sphere-silhouette box passes through untouched and decodes exactly
        center = np.array([0.3, 0.0, 2.0])
        bbox = sphere_silhouette_bbox(center, 0.05, intr)
        annotation = annotation_with(
            [NeighborAnnotation("r1", center, project(center, intr), bbox)]
        )
        detections = simulate_detector(annotation, self.zero_noise(), intr, "box", radius=0.05)
        (estimate,) = decode_detections(detections, intr, radius=0.05)
        np.testing.assert_allclose(estimate.position, center, atol=1e-6)

    def test_zero_noise_box_mode_on_cube_annotation(self, intr):
        # cube corners give a wider box than the sphere model assumes, so the
        # decoded position carries a model error of a couple of half-extents
        annotation = self.cube_annotation(intr)
        detections = simulate_detector(annotation, self.zero_noise(), intr, "box", radius=0.05)
        (estimate,) = decode_detections(detections, intr, radius=0.05)
        assert np.linalg.norm(estimate.position - [0.2, -0.1, 2.0]) < 0.25

    def test_zero_noise_grid_mode_decodes_to_truth(self, intr):
        annotation = self.cube_annotation(intr)
        gmap = simulate_detector(annotation, self.zero_noise(), intr, "grid")
        (estimate,) = decode_detections(gmap, intr)
        truth = annotation.neighbors[0].rel_position
        assert estimate.position[2] == truth[2]
        assert np.linalg.norm(estimate.position - truth) < truth[2] * (8.0 / 2.0) / intr.fx * 1.5

    def test_full_miss_rate_drops_everything(self, intr):
        annotation = self.cube_annotation(intr)
        noise = NoiseModel(miss_rate=1.0, false_positive_rate=0.0, rng_seed=3)
        assert simulate_detector(annotation, noise, intr, "box").shape == (0, 5)
        gmap = simulate_detector(annotation, noise, intr, "grid")
        assert not gmap.confidence.any()

    def test_fixed_seed_bit_reproducible(self, intr):
        annotation = self.cube_annotation(intr)
        noise = NoiseModel(rng_seed=11, false_positive_rate=1.0)
        first = simulate_detector(annotation, noise, intr, "box")
        second = simulate_detector(annotation, noise, intr, "box")
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert np.array_equal(a[:4], b[:4]) and a[4] == b[4]
        g1 = simulate_detector(annotation, noise, intr, "grid")
        g2 = simulate_detector(annotation, noise, intr, "grid")
        assert np.array_equal(g1.confidence, g2.confidence)
        assert np.array_equal(g1.depth, g2.depth)

    def test_different_frames_draw_differently(self, intr):
        annotation = self.cube_annotation(intr)
        shifted = annotation_with(annotation.neighbors, frame_id=1)
        noise = NoiseModel(rng_seed=11, pixel_sigma=2.0)
        a = simulate_detector(annotation, noise, intr, "box")
        b = simulate_detector(shifted, noise, intr, "box")
        assert not np.array_equal(a[0, :4], b[0, :4])

    def test_false_positives_appear_on_empty_frames(self, intr):
        noise = NoiseModel(false_positive_rate=3.0, rng_seed=5)
        detections = simulate_detector(annotation_with([], 7), noise, intr, "box")
        assert len(detections), "expected Poisson false positives"
        for det in detections:
            assert noise.false_confidence[0] <= det[4] <= noise.false_confidence[1]

    def test_false_positive_box_larger_than_the_image_is_centred_on_it(self, intr):
        # a 1 m radius nearer than fx / (width / 2) = 1.0625 m spans the image
        noise = NoiseModel(false_positive_rate=20.0, rng_seed=5)
        detections = detect_rows(frame_rng(noise, 0), [], [], [], noise, intr, "box", 1.0, None)
        wide = [d for d in detections if d[2] - d[0] > intr.width]
        assert wide and len(wide) < len(detections)
        for u_lo, v_lo, u_hi, v_hi, _confidence in detections:
            if u_hi - u_lo > intr.width:  # and taller: fx == fy on a square image
                assert (u_lo + u_hi) / 2 == pytest.approx(intr.width / 2, abs=1e-9)
                assert (v_lo + v_hi) / 2 == pytest.approx(intr.height / 2, abs=1e-9)
            else:
                assert -1e-9 <= u_lo and u_hi <= intr.width + 1e-9
                assert -1e-9 <= v_lo and v_hi <= intr.height + 1e-9

    def test_pixel_sigma_two_gives_fraction_of_a_meter_error(self, intr):
        # 0.1 m robot at 2 m: +/-2 px jitter lands around 0.2 m Euclidean error
        geom = RobotGeometry(half_extents=np.full(3, 0.1), sphere_radius=0.1)
        bbox = sphere_silhouette_bbox((0.0, 0.0, 2.0), 0.1, intr)
        center = project((0.0, 0.0, 2.0), intr)
        annotation = annotation_with(
            [NeighborAnnotation("r1", np.array([0.0, 0.0, 2.0]), center, bbox)]
        )
        noise = NoiseModel(pixel_sigma=2.0, miss_rate=0.0, false_positive_rate=0.0, rng_seed=2)
        errors = []
        for frame_id in range(12_000):
            annotation.frame_id = frame_id
            detections = simulate_detector(annotation, noise, intr, "box", radius=0.1)
            estimates = decode_detections(detections, intr, radius=0.1)
            if estimates:
                errors.append(np.linalg.norm(estimates[0].position - [0.0, 0.0, 2.0]))
        mean_error = float(np.mean(errors))
        assert 0.05 < mean_error < 0.6

    def test_grid_outputs_have_positive_depth(self, intr):
        annotation = self.cube_annotation(intr)
        noise = NoiseModel(rng_seed=8, depth_rel_sigma=0.5, false_positive_rate=2.0)
        for frame_id in range(50):
            annotation.frame_id = frame_id
            gmap = simulate_detector(annotation, noise, intr, "grid")
            for estimate in decode_detections(gmap, intr):
                assert estimate.position[2] > 0.0

    def test_unknown_mode_rejected(self, intr):
        with pytest.raises(ValueError):
            simulate_detector(annotation_with([]), NoiseModel(), intr, "lidar")


SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 10**40)
EDGE_FRAME_IDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]


def random_frame_ids(count: int) -> list[int]:
    """Ids of one and of two 32-bit words, interleaved, plus the edge ids."""
    rng = np.random.default_rng(11)
    narrow = rng.integers(0, 2**32, count).tolist()
    wide = rng.integers(2**32, 2**63 - 1, count, endpoint=True).tolist()
    return EDGE_FRAME_IDS + [i for pair in zip(narrow, wide) for i in pair]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFrameSeeds:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_rows_equal_seed_sequence_state(self, seed):
        ids = random_frame_ids(40)
        seeds = frame_seeds(seed, ids)
        assert seeds.shape == (len(ids), 4) and seeds.dtype == np.uint64
        for row, frame_id in zip(seeds, ids):
            expected = np.random.SeedSequence([seed, frame_id]).generate_state(4, np.uint64)
            assert row.tobytes() == expected.tobytes(), frame_id

    @pytest.mark.parametrize("seed", SEEDS)
    def test_row_generators_equal_frame_rng(self, seed):
        ids = random_frame_ids(10)
        noise = NoiseModel(rng_seed=seed)
        for row, frame_id in zip(frame_seeds(seed, np.array(ids)), ids):
            rng = np.random.Generator(np.random.PCG64(FrameSeed(seed, frame_id, row)))
            expected = frame_rng(noise, frame_id)
            assert rng.bit_generator.state == expected.bit_generator.state
            assert rng.random(3).tobytes() == expected.random(3).tobytes()

    def test_one_word_and_two_word_ids_keep_their_order(self):
        ids = random_frame_ids(5)
        seeds = frame_seeds(7, ids)
        for k in range(len(ids)):
            assert seeds[k].tobytes() == frame_seeds(7, ids[k:k + 1])[0].tobytes()

    @pytest.mark.parametrize("ids", [[], np.array([], dtype=np.int64)])
    def test_no_frames_give_no_rows(self, ids):
        seeds = frame_seeds(3, ids)
        assert seeds.shape == (0, 4) and seeds.dtype == np.uint64

    def test_negative_frame_id_rejected_like_seed_sequence(self):
        with pytest.raises(ValueError):
            np.random.SeedSequence([0, -1])
        with pytest.raises(ValueError, match="non-negative"):
            frame_seeds(0, [3, -1])

    @pytest.mark.parametrize("n_words,dtype", [(4, np.uint32), (8, np.uint64), (2, np.uint64)])
    def test_other_state_requests_go_to_a_seed_sequence(self, n_words, dtype):
        seed, frame_id = 2**64 + 5, 2**32
        row = frame_seeds(seed, [frame_id])[0]
        assert FrameSeed(seed, frame_id, row).generate_state(n_words, dtype).tobytes() == \
            np.random.SeedSequence([seed, frame_id]).generate_state(n_words, dtype).tobytes()
