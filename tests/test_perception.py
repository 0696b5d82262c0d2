"""Detection decoding and the simulated detector."""

import math

import numpy as np
import pytest

from run_columns import annotated

from spincam import perception
from spincam.camera import (
    DEFAULT_INTRINSICS,
    CameraIntrinsics,
    CameraModel,
    FrameAnnotation,
    NeighborAnnotation,
    back_project,
    fold_radius,
    project,
    track_poses,
)
from spincam.errors import DegenerateBox, NonPositiveDepth, OutOfRange
from spincam.geometry import PoseTrack, RobotGeometry
from spincam.perception import (
    GridDetectionMap,
    NoiseModel,
    _box_positions,
    _dots,
    decode_box,
    decode_detections,
    decode_grid,
    decode_grid_frames,
    detect_rows,
    encode_grid,
    frame_rng,
    grid_cell_center,
    simulate_detector,
)
from spincam.seeding import (
    SEED_BLOCK,
    SEED_CACHE_BLOCKS,
    FrameSeed,
    _seed_block,
    first_uniforms,
    frame_seeds,
    frame_row,
)


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


def axis_box(alpha: float, intr: CameraIntrinsics) -> list[float]:
    """A box around the principal point whose edge rays subtend the angle
    alpha, for a lens without distortion."""
    half = intr.fx * math.tan(0.5 * alpha)
    return [intr.cx - half, intr.cy - 1.0, intr.cx + half, intr.cy + 1.0]


class TestSphereDistance:
    """A box decodes to the range radius / sin(alpha / 2), for the angle
    alpha between its edge rays."""

    def test_half_pi_subtense(self, intr):
        # rays 45 degrees either side of the axis: the center sits sqrt(2) radii away
        position = decode_box(axis_box(0.5 * math.pi, intr), intr, 0.1).position
        np.testing.assert_allclose(position, [0.0, 0.0, 0.1 * math.sqrt(2.0)], atol=1e-15)

    def test_small_angle_value(self, intr):
        position = decode_box(axis_box(0.1, intr), intr, 0.05).position
        np.testing.assert_allclose(position, [0.0, 0.0, 0.05 / math.sin(0.05)], atol=1e-12)

    def test_zero_angle_degenerate(self, intr):
        # a box one ulp wide, whose rays' dot rounds to one
        with pytest.raises(DegenerateBox):
            decode_box([160.0, 150.0, math.nextafter(160.0, math.inf), 170.0], intr, 0.1)

    def test_distance_decreases_with_angle(self, intr):
        angles = np.linspace(0.01, 3.0, 200)
        distances = [decode_box(axis_box(a, intr), intr, 0.05).position[2] for a in angles]
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

    @pytest.mark.parametrize("box", [
        (100.0, 90.0, 100.0, 110.0), (320.0, 10.0, 320.0, 12.0), (0.0, 0.0, 0.0, 5.0),
        (110.0, 90.0, 100.0, 110.0),
    ], ids=["inside", "right-edge", "corner", "reversed"])
    def test_box_without_width_degenerate(self, intr, box):
        """A box with u_max <= u_min gives no position, also where rounding
        leaves its two rays a tiny angle apart (at the right edge, 1.5e-8
        rad: millions of metres)."""
        with pytest.raises(DegenerateBox):
            decode_box(box, intr, 0.05)
        rows, positions = _box_positions([[*box, 0.9], [100.0, 90.0, 120.0, 110.0, 0.9]],
                                         intr, 0.05)
        assert rows == [1] and positions.shape == (1, 3)

    def test_box_past_the_lens_fold_is_skipped(self):
        """A box wider than the image of a barrel lens has an edge midpoint
        past the fold, which has no ray; it is a degenerate box, and the rows
        skip it."""
        intr = CameraIntrinsics(fx=170.0, fy=170.0, cx=160.0, cy=160.0, k1=-0.08)
        wide, inside = (-200.0, 150.0, 100.0, 170.0), (100.0, 150.0, 140.0, 170.0)
        with pytest.raises(DegenerateBox):
            decode_box(wide, intr, 0.5)
        rows, decoded = _box_positions([wide + (0.9,), inside + (0.9,)], intr, 0.5)
        assert rows == [1]
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
    """The unit ray through a pixel (u, v): its `back_project` point at
    depth 1 over np.linalg.norm of it."""
    ray = back_project(pixel, 1.0, intr)
    return ray / np.linalg.norm(ray)


def clip_ray_position(a1: np.ndarray, a2: np.ndarray, radius: float) -> np.ndarray:
    """The position (3,) of a sphere from two of its tangent rays, written
    with np.clip and np.linalg.norm: at radius / sin(alpha / 2) along their
    bisector, for the angle alpha between them."""
    alpha = math.acos(float(np.clip(np.dot(a1, a2), -1.0, 1.0)))
    if alpha <= 0.0:
        raise DegenerateBox("tangent rays subtend no angle")
    d = radius / math.sin(0.5 * alpha)
    a_c = 0.5 * (a1 + a2)
    norm = np.linalg.norm(a_c)
    if norm == 0.0:
        raise DegenerateBox("tangent rays are antipodal; direction is undefined")
    return d * a_c / norm


def unit_rows(rng, count: int) -> np.ndarray:
    rows = rng.normal(size=(count, 3))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestScalarKernelsMatchNumpyFormulas:
    """`_box_positions` clips with min/max and takes each norm as the sqrt
    of a dot. Its test-side reference, `norm_pixel_ray` and
    `clip_ray_position`, writes the numpy formulas, and gives no position
    where the decoder gives none: where the rays subtend no angle or are
    antipodal."""

    def test_near_parallel_rays_whose_dot_rounds_above_one_are_degenerate(self):
        rays = unit_rows(np.random.default_rng(5), 2000)
        # a ray and the same ray one ulp longer in x
        pairs = [(a, a + [np.spacing(a[0]), 0.0, 0.0]) for a in rays]
        above = [(a1, a2) for a1, a2 in [*zip(rays, rays), *pairs] if a1.dot(a2) > 1.0]
        assert len(above) > 20
        for a1, a2 in above:
            with pytest.raises(DegenerateBox):
                clip_ray_position(a1, a2, 0.05)

    def test_antipodal_rays_are_degenerate(self):
        for a in unit_rows(np.random.default_rng(6), 200):
            with pytest.raises(DegenerateBox):
                clip_ray_position(a, -a, 0.05)


# huge pixels, whose undistorted edge points' squared norms overflow
HUGE_BOXES = [[0.0, 0.0, 1e300, 1e300], [-1e300, 0.0, 0.0, 10.0], [0.0, 1e200, 10.0, 1e200],
              [1.7e308, 10.0, 1.79e308, 12.0]]
# a barrel lens that `CameraIntrinsics` accepts, whose fold lies exactly at
# the corner of the default 320x320 image
CORNER_RADIUS = math.hypot(160.0 / 170.0, 160.0 / 170.0)
CORNER_FOLD_K1 = -4.0 / (27.0 * CORNER_RADIUS * CORNER_RADIUS)


def box_corpus(rng) -> list[list[float]]:
    """Boxes for the default 320x320 image: random ones in and around it,
    ones clipped at its edges, degenerate ones (u_min == u_max), ones one
    ulp wide, whose rays mostly subtend no angle, ones whose edge midpoints
    lie past the fold of a barrel lens with k1 -0.08, ones with an edge
    midpoint at the image corner, and huge pixels (HUGE_BOXES, and a box
    whose v_min + v_max overflows)."""
    boxes = []
    for _ in range(300):
        u_min, u_max = np.sort(rng.uniform(-40.0, 360.0, 2)).tolist()
        v_min, v_max = np.sort(rng.uniform(-40.0, 360.0, 2)).tolist()
        boxes.append([u_min, v_min, u_max, v_max])
    for _ in range(100):
        u_min, v_min = rng.uniform(0.0, 300.0, 2).tolist()
        boxes.append([u_min, v_min, u_min + rng.uniform(1.0, 20.0), v_min + 5.0])
    boxes += [[0.0, 10.0, 30.0, 40.0], [290.0, 280.0, 320.0, 320.0], [0.0, 0.0, 320.0, 320.0],
              [0.0, 150.0, 320.0, 170.0]]
    boxes += [[100.0, 90.0, 100.0, 110.0], [0.0, 0.0, 0.0, 5.0], [320.0, 10.0, 320.0, 12.0]]
    for u_min, v_min in rng.uniform(0.0, 320.0, (20, 2)).tolist():
        boxes.append([u_min, v_min, math.nextafter(u_min, math.inf), v_min + 5.0])
    boxes += [[-200.0, 150.0, 100.0, 170.0], [-300.0, -300.0, 600.0, 600.0],
              [150.0, 160.0, 500.0, 160.0]]
    boxes += [[0.0, 0.0, 10.0, 0.0], [300.0, 320.0, 320.0, 320.0]]
    return boxes + HUGE_BOXES + [[0.0, 1.7e308, 10.0, 1.7e308]]


def reference_box_position(box, intr: CameraIntrinsics, radius: float) -> np.ndarray:
    """The position (3,) of one box from the tests' numpy formulas; raises
    ValueError where a box has no width, OutOfRange where an edge midpoint
    lies past the lens's reach, OverflowError where an undistorted edge
    point's squared norm is not finite, and DegenerateBox where its rays
    subtend no angle."""
    u_min, v_min, u_max, v_max = box[:4]
    if u_max <= u_min:
        raise ValueError("box has no width")
    v_mid = 0.5 * (v_min + v_max)
    for u in (u_min, u_max):
        x, y, _z = back_project((u, v_mid), 1.0, intr).tolist()
        if not x * x + y * y < math.inf:
            raise OverflowError(f"edge point ({x}, {y}) is past the float range")
    return clip_ray_position(norm_pixel_ray((u_min, v_mid), intr),
                             norm_pixel_ray((u_max, v_mid), intr), radius)


class TestBatchedBoxDecoder:
    """`_box_positions`, the one box decoder, decodes many boxes in one
    call, row by row below BOX_ARRAY_ROWS boxes and in array passes from it
    on; each row is the tests' one-row reference, bit for bit, and the rows
    the reference rejects are the rows it skips."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k1", (-0.08, 0.0, 0.05, pytest.param(CORNER_FOLD_K1,
                                                                   id="fold-at-corner")))
    def test_rows_equal_one_row_decoder(self, k1, monkeypatch):
        """The corpus in one call, each row alone, and in calls of BOX_ARRAY_ROWS
        boxes and of one fewer, on both sides of the switch, give the
        reference's rows and positions."""
        intr = CameraIntrinsics(fx=170.0, fy=170.0, cx=160.0, cy=160.0, k1=k1)
        boxes = [box + [0.9] for box in box_corpus(np.random.default_rng(21))]
        expected, skipped = {}, []
        for k, box in enumerate(boxes):
            try:
                expected[k] = reference_box_position(box, intr, 0.05)
            except DegenerateBox:
                skipped.append("angle")
            except OutOfRange:
                skipped.append("reach")
            except OverflowError:
                skipped.append("range")
            except ValueError:
                skipped.append("width")
        # the corpus's zero-width and reversed boxes; its one-ulp boxes; the
        # boxes past a barrel lens's fold; its huge pixels, the last rows
        huge = len(HUGE_BOXES) + 1
        assert skipped.count("width") >= 3 and skipped.count("angle") >= 5
        assert (skipped[:-huge].count("reach") >= 2) == (k1 < 0.0)
        assert sorted(expected)[-1] < len(boxes) - huge
        assert set(skipped[-huge:]) <= {"range", "reach"}
        passes = []

        def spy(name, decoder):
            def decode(chunk, *args):
                passes.append((name, len(chunk)))
                return decoder(chunk, *args)
            return decode

        for name in ("_box_positions_by_row", "_box_positions_by_array"):
            monkeypatch.setattr(perception, name, spy(name, getattr(perception, name)))
        switch = perception.BOX_ARRAY_ROWS
        calls = {"corpus": [(0, boxes)], "alone": [(k, [box]) for k, box in enumerate(boxes)]}
        for size in (switch - 1, switch):
            calls[size] = [(k, boxes[k:k + size]) for k in range(0, len(boxes), size)]
        for way, chunks in calls.items():
            passes.clear()
            rows, positions = [], []
            for start, chunk in chunks:
                chunk_rows, chunk_positions = _box_positions(chunk, intr, 0.05)
                rows += [start + k for k in chunk_rows]
                positions.append(chunk_positions)
            positions = np.concatenate(positions)
            assert rows == sorted(expected), way
            assert positions.shape == (len(rows), 3)
            assert positions.tobytes() == np.array([expected[k] for k in rows]).tobytes(), way
            # the first call holds the most boxes
            assert [name == "_box_positions_by_array" for name, _ in passes] == \
                [count >= switch for _name, count in passes]
            assert (passes[0][1] >= switch) == (way in ("corpus", switch)), way
        one_row = [decode_box(boxes[k][:4], intr, 0.05).position for k in sorted(expected)]
        assert np.array(one_row).tobytes() == np.array(
            [expected[k] for k in sorted(expected)]).tobytes()

    @pytest.mark.parametrize("k1", (-0.08, 0.0, 0.05))
    def test_rows_equal_numpy_formulas(self, k1):
        """Each decoded row equals the box decoder written with
        np.linalg.norm and np.clip (`norm_pixel_ray`, `clip_ray_position`)."""
        intr = CameraIntrinsics(fx=170.0, fy=170.0, cx=160.0, cy=160.0, k1=k1)
        boxes = box_corpus(np.random.default_rng(22))
        rows, positions = _box_positions(boxes, intr, 0.05)
        assert len(rows) > 300
        for k, position in zip(rows, positions):
            u_min, v_min, u_max, v_max = boxes[k]
            v_mid = 0.5 * (v_min + v_max)
            expected = clip_ray_position(norm_pixel_ray((u_min, v_mid), intr),
                                         norm_pixel_ray((u_max, v_mid), intr), 0.05)
            assert position.tobytes() == expected.tobytes()

    def test_box_at_the_corner_of_a_lens_folding_there_is_skipped(self):
        """`CameraIntrinsics` accepts a barrel lens whose fold lies exactly at
        the image corner; a box with an edge midpoint at that corner is past
        the lens's reach: it is a degenerate box, and the rows skip it."""
        corner = math.hypot(160.0 / 170.0, 160.0 / 170.0)
        intr = CameraIntrinsics(fx=170.0, fy=170.0, cx=160.0, cy=160.0,
                                k1=-4.0 / (27.0 * corner * corner))
        assert fold_radius(intr.k1) == corner
        boxes = [[150.0, 150.0, 170.0, 152.0], [0.0, 0.0, 10.0, 0.0], [140.0, 100.0, 160.0, 102.0]]
        with pytest.raises(OutOfRange):
            norm_pixel_ray((0.0, 0.0), intr)
        with pytest.raises(DegenerateBox):
            decode_box(boxes[1], intr, 0.05)
        rows, positions = _box_positions(boxes, intr, 0.05)
        assert rows == [0, 2]
        assert positions.tobytes() == np.array(
            [reference_box_position(boxes[k], intr, 0.05) for k in rows]).tobytes()

    def test_no_boxes_give_no_rows(self, intr):
        rows, positions = _box_positions([], intr, 0.05)
        assert rows == [] and positions.shape == (0, 3)
        assert decode_detections(np.empty((0, 5)), intr, 0.05) == []

    def test_no_detections_skip_the_decoder(self, intr, monkeypatch):
        """Most frames hold no detection; `decode_detections` returns
        without calling the decoder, whose fixed cost is most of a call."""
        def fail(*args):
            raise AssertionError("an empty box output reached the decoder")

        monkeypatch.setattr(perception, "_box_positions", fail)
        assert decode_detections(np.empty((0, 5)), intr, 0.05) == []

    @pytest.mark.parametrize("huge", [
        [0.0, 0.0, 1e300, 1e300], [-1e300, 0.0, 0.0, 10.0], [0.0, 1e200, 10.0, 1e200],
        [1.7e308, 10.0, 1.79e308, 12.0],
    ], ids=["corner", "left", "below", "near-max"])
    def test_huge_pixels_give_no_position(self, huge):
        """A box whose undistorted edge points' squared norms overflow gives
        no position, and decoding it warns of no overflow; the good row
        beside it keeps its bits."""
        good = [100.0, 90.0, 120.0, 110.0, 0.9]
        rows, positions = _box_positions([[*huge, 0.9], good], DEFAULT_INTRINSICS, 0.05)
        assert rows == [1]
        assert positions.tobytes() == \
            _box_positions([good], DEFAULT_INTRINSICS, 0.05)[1].tobytes()
        with pytest.raises(DegenerateBox):
            decode_box(huge, DEFAULT_INTRINSICS, 0.05)

    @pytest.mark.parametrize("count", (1, 2, 2000))
    def test_dots_equal_ndarray_dot(self, count):
        """The stacked matmul gives `ndarray.dot`'s bits, on rays whose dots
        a plain sum rounds differently."""
        rng = np.random.default_rng(23)
        rays = np.column_stack([rng.uniform(-2.0, 2.0, (count, 2)), np.ones(count)])
        units = rays / np.linalg.norm(rays, axis=1, keepdims=True)
        a, b = rays.tolist(), units[::-1].tolist()
        assert np.array(_dots(a)).tobytes() == np.array([r.dot(r) for r in rays]).tobytes()
        assert np.array(_dots(a, b)).tobytes() == \
            np.array([r.dot(u) for r, u in zip(rays, units[::-1])]).tobytes()
        if count == 2000:
            plain = rays[:, 0] * rays[:, 0] + rays[:, 1] * rays[:, 1] + 1.0
            assert (plain != np.array(_dots(a))).any()


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

    def test_stacked_frames_equal_cell_by_cell_decoder(self, intr):
        """One `decode_grid_frames` pass over a stack of the plateau corpus's
        grids of one shape gives each frame's cell-by-cell peaks, in frame
        order, bit for bit, ties and threshold-level cells included."""
        rng = np.random.default_rng(11)
        by_shape = {}
        for gmap in [*grids_with_plateaus(rng), *corner_and_edge_grids()]:
            by_shape.setdefault(gmap.confidence.shape, []).append(gmap)
        decoded = 0
        for grids in by_shape.values():
            confidence = np.stack([g.confidence for g in grids])
            depth = np.stack([g.depth for g in grids])
            for threshold in (0.5, 0.3, 0.0):
                frames, positions = decode_grid_frames(confidence, depth, intr, threshold)
                expected = [decode_grid_cell_by_cell(g, intr, threshold) for g in grids]
                counts = [len(e) for e in expected]
                assert frames.tolist() == np.repeat(np.arange(len(grids)), counts).tolist()
                assert positions.tobytes() == \
                    np.reshape([p for e in expected for p in e], (-1, 3)).tobytes()
                decoded += len(positions)
        assert decoded > 1000

    def test_non_positive_peak_depth_raises_like_back_project(self, intr):
        gmap = GridDetectionMap(np.zeros((28, 40)), np.ones((28, 40)))
        gmap.confidence[3, 4], gmap.depth[3, 4] = 0.9, 0.0
        with pytest.raises(NonPositiveDepth, match="depth 0.0 is not positive"):
            decode_grid(gmap, intr)

    @pytest.mark.parametrize("channel", ["confidence", "depth"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_cells_rejected(self, channel, value):
        channels = {"confidence": np.zeros((3, 4)), "depth": np.ones((3, 4))}
        channels[channel][1, 2] = value
        with pytest.raises(ValueError, match="finite"):
            GridDetectionMap(**channels)

    @pytest.mark.parametrize("shapes", [((3, 4), (4, 3)), ((3, 4), (3, 4, 1)), ((12,), (12,))])
    def test_channels_of_other_shapes_rejected(self, shapes):
        with pytest.raises(ValueError, match="one shape"):
            GridDetectionMap(np.zeros(shapes[0]), np.zeros(shapes[1]))

    def test_zeros_skips_the_constructor_checks(self, monkeypatch):
        def fail(self):
            raise AssertionError("zeros() ran the constructor checks")

        monkeypatch.setattr(GridDetectionMap, "__post_init__", fail)
        gmap, other = GridDetectionMap.zeros(5, 7), GridDetectionMap.zeros()
        assert isinstance(gmap, GridDetectionMap)
        assert gmap.confidence.shape == gmap.depth.shape == (5, 7)
        assert other.confidence.shape == (28, 40)
        gmap.confidence[1, 2] = 1.0  # each map owns fresh, writable channels
        assert not gmap.depth.any() and not other.confidence.any()


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
        return annotated([0.0], track_poses(tracks, [0.0]), camera, geom).annotations()[0]

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
    def test_first_uniforms_equal_default_rng(self, seed):
        """Each row's first uniform, computed from its seed words, is bitwise
        the first `random()` of `default_rng`, for ids of one and two words."""
        ids = random_frame_ids(40)
        uniforms = first_uniforms(frame_seeds(seed, ids))
        expected = [np.random.default_rng([seed, frame_id]).random() for frame_id in ids]
        assert uniforms.tobytes() == np.array(expected).tobytes()
        assert [frame_row(seed, frame_id)[1] for frame_id in ids] == expected

    @pytest.mark.parametrize("lam", (0.0, 5e-324, 0.05, 0.5, 9.999999, 10.0, 12.0))
    def test_quiet_frames_are_those_that_draw_no_false_positive(self, lam):
        """A frame without neighbor rows is quiet exactly when its one draw,
        `poisson(lam)`, is 0, and then it takes one uniform (none at lam 0).
        From lam 10 on no frame is quiet, and none of these draws 0."""
        ids = random_frame_ids(100)
        below = perception._quiet_below(NoiseModel(rng_seed=3, false_positive_rate=lam))
        assert (lam >= 10.0) == (below < 0.0)
        quiet = (first_uniforms(frame_seeds(3, ids)) <= below).tolist()
        counts = []
        for frame_id, frame_quiet in zip(ids, quiet):
            rng = np.random.default_rng([3, frame_id])
            counts.append(int(rng.poisson(lam)))
            if frame_quiet:
                expected = np.random.default_rng([3, frame_id])
                expected.random(int(lam > 0.0))
                assert rng.bit_generator.state == expected.bit_generator.state
        assert quiet == [count == 0 for count in counts]
        # at lam 0.05 and 0.5 the frames are of both kinds
        assert (0.01 < lam < 1.0) <= (0 < sum(quiet) < len(ids))

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

    @pytest.mark.parametrize("seed", (7, 2**32 + 7, 2**64 + 7))
    @pytest.mark.parametrize("frame_id", (0, 255, 256, 2**32 - 1, 2**32, 2**63 - 1))
    def test_frame_rng_equals_default_rng(self, seed, frame_id):
        """`frame_rng` takes its seed from a cached block of ids, for seeds
        of one, two and three 32-bit words, at block and word edges."""
        rng = frame_rng(NoiseModel(rng_seed=seed), frame_id)
        expected = np.random.default_rng([seed, frame_id])
        assert rng.bit_generator.state == expected.bit_generator.state
        assert rng.random(3).tobytes() == expected.random(3).tobytes()
        assert rng.normal(size=2).tobytes() == expected.normal(size=2).tobytes()

    def test_frame_rng_after_the_cache_evicts_blocks(self):
        """More blocks than the cache holds are touched; an evicted block is
        hashed again, and every stream stays that of default_rng."""
        noise = NoiseModel(rng_seed=5)
        ids = [SEED_BLOCK * block + 3 for block in range(SEED_CACHE_BLOCKS + 8)]
        for frame_id in ids + ids[:4]:
            rng = frame_rng(noise, frame_id)
            expected = np.random.default_rng([5, frame_id])
            assert rng.bit_generator.state == expected.bit_generator.state
            assert rng.random() == expected.random()
        assert _seed_block.cache_info().currsize == SEED_CACHE_BLOCKS

    @pytest.mark.parametrize("frame_id", (-1, -SEED_BLOCK, 2**63))
    def test_frame_rng_rejects_ids_outside_int64_counts(self, frame_id):
        with pytest.raises(ValueError, match="frame id"):
            frame_rng(NoiseModel(), frame_id)
        # a frame without neighbors reads its first uniform from the same blocks
        for mode in ("box", "grid"):
            with pytest.raises(ValueError, match="frame id"):
                simulate_detector(annotation_with([], frame_id), NoiseModel(),
                                  DEFAULT_INTRINSICS, mode)

    @pytest.mark.parametrize("n_words,dtype", [(4, np.uint32), (8, np.uint64), (2, np.uint64)])
    def test_other_state_requests_go_to_a_seed_sequence(self, n_words, dtype):
        seed, frame_id = 2**64 + 5, 2**32
        row = frame_seeds(seed, [frame_id])[0]
        assert FrameSeed(seed, frame_id, row).generate_state(n_words, dtype).tobytes() == \
            np.random.SeedSequence([seed, frame_id]).generate_state(n_words, dtype).tobytes()
