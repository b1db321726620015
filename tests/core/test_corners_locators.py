"""Corner tracker detection and progressive locator localization.

Locators work on the capture's black mask.  ``_reference_correct_location``
keeps the image-and-classifier form of the correction loop verbatim, as
the oracle the mask form must match exactly.  ``_reference_tracker_candidates``
keeps the full-frame candidate search (label, full-frame ``bincount``
statistics, then every filter) verbatim, as the oracle the box-first
search, which labels only the screen's box, must match exactly.
"""

import zlib
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from repro.bench.faults_campaign import CAMPAIGN_GRID, CAMPAIGN_SENSOR
from repro.channel.link import LinkConfig, ScreenCameraLink
from repro.channel.screen import FrameSchedule
from repro.core import corners
from repro.core.brightness import estimate_black_threshold
from repro.core.corners import (
    CornerDetectionError,
    detect_corner_trackers,
    ring_colors,
    tracker_candidates,
)
from repro.core.decoder import FrameDecoder
from repro.core.encoder import FrameCodecConfig, FrameEncoder
from repro.core.layout import FrameLayout
from repro.core.locators import (
    _CONVERGENCE_PX,
    _MAX_CORRECTION_ITERS,
    _MIN_BLACK_PIXELS,
    LocatorError,
    correct_location,
    find_first_middle_locator,
    walk_locator_column,
)
from repro.core.palette import Color
from repro.core.recognition import ColorClassifier
from repro.faults import scenario_names, scenario_plan
from repro.imaging.filters import gaussian_blur
from repro.imaging.color import normalize_frame
from repro.imaging.geometry import PinholeSetup, apply_homography, warp_perspective
from repro.imaging.segmentation import connected_components
from repro.io import read_png
from repro.link.session import TransferSession

CORPUS_DIR = Path(__file__).parent.parent / "fixtures" / "corpus"


@pytest.fixture(scope="module")
def config():
    return FrameCodecConfig(layout=FrameLayout(34, 60, 12))


@pytest.fixture(scope="module")
def frame_image(config):
    return FrameEncoder(config).encode_frame(b"corner test", sequence=0).render()


@pytest.fixture(scope="module")
def classifier():
    return ColorClassifier(t_value=0.4)


@pytest.fixture(scope="module")
def black(frame_image, classifier):
    return classifier.black_mask(frame_image)


def _reference_correct_location(image, classifier, point, block_size):
    """The image-path correction loop, kept verbatim as the oracle."""
    image = np.asarray(image, dtype=np.float64)
    height, width = image.shape[:2]
    half = max(block_size * 0.75, 1.5)
    point = np.asarray(point, dtype=np.float64).copy()
    if not np.all(np.isfinite(point)) or not np.isfinite(half):
        return None

    for __ in range(_MAX_CORRECTION_ITERS):
        x0 = int(np.floor(point[0] - half))
        x1 = int(np.ceil(point[0] + half)) + 1
        y0 = int(np.floor(point[1] - half))
        y1 = int(np.ceil(point[1] + half)) + 1
        x0, x1 = max(x0, 0), min(x1, width)
        y0, y1 = max(y0, 0), min(y1, height)
        if x1 - x0 < 2 or y1 - y0 < 2:
            return None
        window = image[y0:y1, x0:x1]
        black = classifier.classify_pixels(window) == int(Color.BLACK)
        if int(black.sum()) < _MIN_BLACK_PIXELS:
            return None
        ys, xs = np.nonzero(black)
        new_point = np.array([x0 + xs.mean(), y0 + ys.mean()])
        if np.linalg.norm(new_point - point) < _CONVERGENCE_PX:
            return new_point
        point = new_point
    return point


def truth_point(layout, setup, row, col):
    return apply_homography(setup.homography(), np.array(layout.cell_center_px(row, col)))


class TestCornerDetection:
    def test_pristine_frame(self, config, frame_image, classifier, black):
        det = detect_corner_trackers(frame_image, classifier, black)
        layout = config.layout
        expect_left = layout.cell_center_px(2, layout.left_locator_col)
        expect_right = layout.cell_center_px(2, layout.right_locator_col)
        assert np.allclose(det.left.center, expect_left, atol=1.0)
        assert np.allclose(det.right.center, expect_right, atol=1.0)
        assert det.block_size == pytest.approx(12, abs=2)

    def test_under_perspective(self, config, frame_image, classifier):
        setup = PinholeSetup(
            screen_size_px=frame_image.shape[:2],
            sensor_size_px=(480, 800),
            view_angle_deg=25.0,
        )
        cap = warp_perspective(frame_image, setup.homography(), (480, 800), fill=0.1)
        est = estimate_black_threshold(cap)
        clf = ColorClassifier(t_value=est.t_value)
        det = detect_corner_trackers(cap, clf, clf.black_mask(cap))
        layout = config.layout
        assert np.allclose(
            det.left.center, truth_point(layout, setup, 2, 2), atol=1.5
        )
        assert np.allclose(
            det.right.center, truth_point(layout, setup, 2, layout.right_locator_col), atol=1.5
        )

    def test_missing_trackers_raise(self, classifier):
        blank = np.ones((100, 200, 3)) * 0.5
        with pytest.raises(CornerDetectionError):
            detect_corner_trackers(blank, classifier, classifier.black_mask(blank))

    def test_row_step_points_down(self, frame_image, classifier, black):
        det = detect_corner_trackers(frame_image, classifier, black)
        step = det.row_step()
        assert step[1] > 0  # downward in image coordinates
        assert abs(step[0]) < abs(step[1])

    def test_column_step_spacing(self, config, frame_image, classifier, black):
        det = detect_corner_trackers(frame_image, classifier, black)
        cols_between = config.layout.right_locator_col - config.layout.left_locator_col
        step = det.column_step(cols_between)
        assert step[0] == pytest.approx(12, abs=0.5)

    def test_equal_purity_tie_goes_to_lower_label(self, classifier):
        # Two identical green trackers on one row, plus a red one: both
        # green rings are fully pure, so the first-labeled (left) wins.
        img = np.ones((60, 200, 3))
        for x, ring in ((30, (0.0, 1.0, 0.0)), (90, (0.0, 1.0, 0.0)), (150, (1.0, 0.0, 0.0))):
            img[18:42, x - 12 : x + 12] = ring
            img[26:34, x - 4 : x + 4] = 0.0
        black = classifier.black_mask(img)
        candidates = tracker_candidates(black, 3.0, 40.0)
        greens = np.mean(ring_colors(img, classifier, candidates) == int(Color.GREEN), axis=1)
        assert greens.tolist() == [1.0, 1.0, 0.0]
        det = detect_corner_trackers(img, classifier, black)
        assert det.left.center == (29.5, 29.5)
        assert det.right.center == (149.5, 29.5)


class TestLocationCorrection:
    @pytest.mark.parametrize("mode", ["hsv", "rgb"])
    @pytest.mark.parametrize("sigma", [0.0, 1.5])
    def test_mask_matches_image_path(self, frame_image, config, mode, sigma):
        image = gaussian_blur(frame_image, sigma) if sigma else frame_image
        clf = ColorClassifier(t_value=0.4, mode=mode)
        mask = clf.black_mask(image)
        layout = config.layout
        height, width = mask.shape
        starts = [
            np.array(layout.cell_center_px(row, col))
            for row in range(0, layout.grid_rows, 3)
            for col in range(0, layout.grid_cols, 5)
        ]
        rng = np.random.default_rng(4)
        starts += list(rng.uniform([-20.0, -20.0], [width + 20.0, height + 20.0], (40, 2)))
        converged = 0
        for start in starts:
            expected = _reference_correct_location(image, clf, start, 12.0)
            got = correct_location(mask, start, 12.0)
            if expected is None:
                assert got is None
            else:
                assert got is not None and got.tobytes() == expected.tobytes()
                converged += 1
        assert converged > 10

    def test_converges_to_block_center(self, black, config):
        layout = config.layout
        true = np.array(layout.cell_center_px(4, layout.left_locator_col))
        # Start up to 5 px off in both axes.
        for offset in [(3, -4), (-5, 2), (0, 5)]:
            corrected = correct_location(black, true + offset, 12.0)
            assert corrected is not None
            assert np.allclose(corrected, true, atol=0.8)

    def test_returns_none_on_non_black_region(self, black, config):
        layout = config.layout
        data_cell = np.array(layout.cell_center_px(7, 10))
        assert correct_location(black, data_cell, 12.0) is None

    def test_none_off_image(self, black):
        assert correct_location(black, np.array([-50.0, -50.0]), 12.0) is None

    def test_survives_blur(self, frame_image, classifier, config):
        layout = config.layout
        blurred = gaussian_blur(frame_image, 1.5)
        true = np.array(layout.cell_center_px(4, layout.left_locator_col))
        corrected = correct_location(classifier.black_mask(blurred), true + [2, 2], 12.0)
        assert corrected is not None
        assert np.allclose(corrected, true, atol=1.5)


class TestColumnWalk:
    def test_walks_whole_column(self, black, config):
        layout = config.layout
        count = len(list(layout.locator_rows))
        start = np.array(layout.cell_center_px(2, layout.left_locator_col))
        column = walk_locator_column(
            black, start, np.array([0.0, 24.0]), count, 12.0
        )
        assert column.refinement_rate == 1.0
        for i, row in enumerate(layout.locator_rows):
            true = layout.cell_center_px(row, layout.left_locator_col)
            assert np.allclose(column.positions[i], true, atol=0.8), f"row {row}"

    def test_rows_metadata(self, black, config):
        layout = config.layout
        count = len(list(layout.locator_rows))
        start = np.array(layout.cell_center_px(2, layout.left_locator_col))
        column = walk_locator_column(
            black, start, np.array([0.0, 24.0]), count, 12.0, start_row=2
        )
        assert column.rows.tolist() == list(layout.locator_rows)
        assert np.allclose(column.bottom, column.positions[-1])

    def test_dead_reckons_through_gap(self, frame_image, classifier, config):
        # Paint over one locator; the walk must bridge it and recover.
        layout = config.layout
        img = frame_image.copy()
        x, y = layout.cell_center_px(6, layout.left_locator_col)
        img[int(y) - 8 : int(y) + 9, int(x) - 8 : int(x) + 9] = [1.0, 1.0, 1.0]
        count = len(list(layout.locator_rows))
        start = np.array(layout.cell_center_px(2, layout.left_locator_col))
        column = walk_locator_column(
            classifier.black_mask(img), start, np.array([0.0, 24.0]), count, 12.0
        )
        assert not column.refined[2]  # row 6 is the third locator
        assert column.refined[3]  # the next one is found again
        true_last = layout.cell_center_px(layout.last_locator_row, layout.left_locator_col)
        assert np.allclose(column.positions[-1], true_last, atol=1.0)

    def test_count_validation(self, black):
        with pytest.raises(ValueError):
            walk_locator_column(black, np.zeros(2), np.zeros(2), 0, 12.0)


class TestMiddleLocator:
    def test_found_at_midpoint(self, black, config):
        layout = config.layout
        left = np.array(layout.cell_center_px(2, layout.left_locator_col))
        right = np.array(layout.cell_center_px(2, layout.right_locator_col))
        found = find_first_middle_locator(
            black, 0.5 * (left + right), 12.0, 3.0, 40.0
        )
        true = layout.cell_center_px(2, layout.middle_locator_col)
        assert np.allclose(found, true, atol=1.0)

    def test_raises_when_absent(self, classifier):
        blank = np.ones((200, 300, 3))
        with pytest.raises(LocatorError):
            find_first_middle_locator(
                classifier.black_mask(blank), np.array([150.0, 100.0]), 12.0, 3.0, 40.0
            )

    def test_rejects_noise_points(self, classifier, config):
        # A 1-px black dot near the midpoint must not be accepted
        # (four-direction run test / component size filter).
        layout = config.layout
        img = np.ones((200, 300, 3))
        img[100, 150] = 0.0  # noise dot
        x, y = 162.0, 104.0
        img[int(y) - 6 : int(y) + 7, int(x) - 6 : int(x) + 7] = 0.0  # real block
        found = find_first_middle_locator(
            classifier.black_mask(img), np.array([150.0, 100.0]), 12.0, 5.0, 40.0
        )
        assert np.allclose(found, [x, y], atol=1.0)

    def test_window_off_image(self, classifier):
        img = np.ones((50, 50, 3))
        with pytest.raises(LocatorError):
            find_first_middle_locator(
                classifier.black_mask(img), np.array([500.0, 500.0]), 12.0, 3.0, 40.0
            )


def _reference_tracker_candidates(black, min_block_px, max_block_px):
    """The full-frame candidate search, kept verbatim (statistics inlined).

    Returns ``(label, area, centroid, bbox)`` arrays of the candidates.
    """
    labels, count = connected_components(black)
    min_area = max(1, int((0.5 * min_block_px) ** 2))
    max_area = int((2.0 * max_block_px) ** 2)

    flat = labels.ravel()
    areas = np.bincount(flat, minlength=count + 1)[1 : count + 1]
    keep = areas >= max(min_area, 1)
    keep &= areas <= max_area
    rows = np.flatnonzero(keep)
    area = areas[rows]
    boxes = ndimage.find_objects(labels, max_label=count)
    bbox = np.array(
        [(boxes[i][1].start, boxes[i][0].start, boxes[i][1].stop - 1, boxes[i][0].stop - 1)
         for i in rows],
        dtype=np.int64,
    ).reshape(-1, 4)
    height, width = labels.shape
    xs_flat = np.tile(np.arange(width, dtype=np.float64), height)
    ys_flat = np.repeat(np.arange(height, dtype=np.float64), width)
    sum_x = np.bincount(flat, weights=xs_flat, minlength=count + 1)[1:][rows]
    sum_y = np.bincount(flat, weights=ys_flat, minlength=count + 1)[1:][rows]
    centroid = np.column_stack([sum_x / area, sum_y / area])
    label = rows + 1

    box_w = bbox[:, 2] - bbox[:, 0] + 1
    box_h = bbox[:, 3] - bbox[:, 1] + 1
    side = 0.5 * (box_w + box_h)
    aspect = np.maximum(box_w, box_h) / np.maximum(np.minimum(box_w, box_h), 1)
    fill_ratio = area / (box_w * box_h).astype(np.float64)
    keep = (side >= min_block_px) & (side <= max_block_px)
    keep &= (aspect <= 2.0) & (fill_ratio >= 0.5)
    return label[keep], area[keep], centroid[keep], bbox[keep]


def _assert_candidates_match(black, min_block_px=3.0, max_block_px=40.0):
    """Box-first candidates equal the full-frame oracle; returns their count."""
    got = tracker_candidates(black, min_block_px, max_block_px)
    label, area, centroid, bbox = _reference_tracker_candidates(
        black, min_block_px, max_block_px
    )
    assert np.array_equal(got.label, label)
    assert np.array_equal(got.area, area)
    assert np.array_equal(got.centroid.reshape(-1, 2), centroid)
    assert np.array_equal(got.bbox.reshape(-1, 4), bbox)
    return len(label)


def _blocky_mask(rng, shape, density, blocks):
    """Noise at *density* plus solid rectangles of candidate-like size."""
    mask = rng.random(shape) < density
    height, width = shape
    for __ in range(blocks):
        h, w = (int(n) for n in rng.integers(2, 14, size=2))
        y, x = int(rng.integers(0, height - 1)), int(rng.integers(0, width - 1))
        mask[y : y + h, x : x + w] = rng.random() < 0.8
    return mask


def _screen_mask(rng, shape, edges):
    """A blocky screen in a black surround; its box touches *edges*.

    The box's corner pixels are non-black, so the box of the mask's
    non-black pixels is exactly the screen's.
    """
    height, width = shape
    y0, y1 = (0 if "top" in edges else 13), (height if "bottom" in edges else height - 9)
    x0, x1 = (0 if "left" in edges else 17), (width if "right" in edges else width - 11)
    screen = _blocky_mask(rng, (y1 - y0, x1 - x0), 0.05, blocks=40)
    screen[0, 0] = screen[-1, -1] = screen[0, -1] = screen[-1, 0] = False
    mask = np.ones(shape, dtype=bool)
    mask[y0:y1, x0:x1] = screen
    return mask


class TestCandidatesMatchFullFrame:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("density", [0.0, 0.05, 0.3, 0.6, 0.9])
    def test_random_masks(self, seed, density):
        rng = np.random.default_rng([seed, int(density * 100)])
        mask = _blocky_mask(rng, (90, 140), density, blocks=40)
        for min_px, max_px in ((3.0, 40.0), (1.0, 6.0), (4.5, 9.0), (2.0, 200.0)):
            _assert_candidates_match(mask, min_px, max_px)

    def test_random_masks_find_candidates(self):
        # Guard against a vacuous oracle: the blocky masks do yield some.
        rng = np.random.default_rng(3)
        assert _assert_candidates_match(_blocky_mask(rng, (90, 140), 0.05, 40)) > 5

    def test_empty_mask(self):
        assert _assert_candidates_match(np.zeros((40, 60), dtype=bool)) == 0

    def test_all_black_mask(self):
        assert _assert_candidates_match(np.ones((40, 60), dtype=bool)) == 0
        # Large enough for the cropped search, but with no box to crop.
        assert _assert_candidates_match(np.ones((90, 140), dtype=bool)) == 0
        # Small enough to be a candidate block itself.
        assert _assert_candidates_match(np.ones((8, 9), dtype=bool)) == 1

    def test_components_touching_every_edge(self):
        mask = np.zeros((50, 70), dtype=bool)
        mask[:6, :6] = mask[:6, -7:] = mask[-5:, :8] = mask[-6:, -6:] = True
        mask[20:27, :5] = mask[18:26, -4:] = mask[:5, 30:36] = mask[-7:, 40:46] = True
        assert _assert_candidates_match(mask) == 8
        _assert_candidates_match(mask, 2.0, 5.0)

    @pytest.mark.parametrize(
        "edges",
        ["", "top", "right", "top,left", "bottom,right", "top,bottom", "left,right",
         "top,left,right", "top,bottom,left,right"],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_black_surround(self, edges, seed):
        rng = np.random.default_rng([seed, zlib.crc32(edges.encode())])
        mask = _screen_mask(rng, (90, 140), edges.split(","))
        assert _assert_candidates_match(mask) > 0
        for min_px, max_px in ((1.0, 6.0), (4.5, 9.0), (2.0, 200.0)):
            _assert_candidates_match(mask, min_px, max_px)

    def test_screen_box_smaller_than_a_block(self):
        # A 10x12 box, black but for its four corners: cropped with its
        # margin it is one solid, square-ish component, but in the frame
        # it is part of the black surround.
        mask = np.ones((90, 140), dtype=bool)
        mask[40, 50] = mask[40, 61] = mask[49, 50] = mask[49, 61] = False
        assert _assert_candidates_match(mask) == 0
        # A 30x30 non-black box around one black block.
        mask = np.ones((90, 140), dtype=bool)
        mask[30:60, 60:90] = False
        mask[41:49, 70:78] = True
        assert _assert_candidates_match(mask) == 1

    def test_components_reaching_the_margin_diagonally(self):
        mask = np.ones((90, 140), dtype=bool)
        mask[20:70, 30:110] = False
        # Each block reaches a black box-edge pixel, and through it the
        # margin, by one diagonal step only: it is not a candidate.
        mask[20, 30] = True
        mask[21:29, 31:39] = True
        mask[30:38, 30] = True
        mask[38:46, 31:39] = True
        mask[69, 100] = True
        mask[61:69, 101:109] = True
        # One block is a pixel clear of the box edge: a candidate.
        mask[50:58, 60:68] = True
        assert _assert_candidates_match(mask) == 1

    @pytest.mark.parametrize("scenario", scenario_names())
    def test_fault_scenario_captures(self, scenario, monkeypatch):
        # The first round of a campaign-grid session under the
        # scenario's FaultPlan at trial seed 0, as fault_recovery runs it.
        seen = []

        def checked(black, min_block_px, max_block_px):
            seen.append(_assert_candidates_match(black, min_block_px, max_block_px))
            return tracker_candidates(black, min_block_px, max_block_px)

        monkeypatch.setattr(corners, "tracker_candidates", checked)
        rows, cols, block = CAMPAIGN_GRID
        codec = FrameCodecConfig(layout=FrameLayout(rows, cols, block))
        session = TransferSession(
            codec,
            link_config=LinkConfig(sensor_size=CAMPAIGN_SENSOR),
            rng=np.random.default_rng([0, zlib.crc32(scenario.encode())]),
            faults=scenario_plan(scenario, seed=0),
        )
        payload = bytes((i * 89 + 5) % 256 for i in range(2 * codec.payload_bytes_per_frame))
        session.transmit(payload, max_rounds=1)
        assert seen and sum(seen) > 0

    @pytest.mark.parametrize(
        "name", sorted(p.stem for p in CORPUS_DIR.glob("*.png"))
    )
    def test_corpus_captures(self, name):
        capture = read_png(CORPUS_DIR / f"{name}.png")
        image = normalize_frame(capture)
        classifier = ColorClassifier(t_value=estimate_black_threshold(image).t_value)
        black = classifier.black_mask(capture)
        assert np.array_equal(black, classifier.black_mask(image))
        assert _assert_candidates_match(black) > 0


class TestScreenBoxGuard:
    """The cropped search runs only while (1 + min(H, W)) / 2 > max_block_px."""

    @pytest.mark.parametrize(
        "sensor, grid, limit",
        [((480, 800), None, 240.5), (CAMPAIGN_SENSOR, CAMPAIGN_GRID, 150.5)],
    )
    def test_large_max_block_labels_the_full_frame(self, monkeypatch, sensor, grid, limit):
        codec = FrameCodecConfig(layout=FrameLayout(*grid)) if grid else FrameCodecConfig()
        frame = FrameEncoder(codec).encode_stream(b"guard")[0]
        schedule = FrameSchedule([frame.render()], display_rate=codec.display_rate)
        link = ScreenCameraLink(LinkConfig(sensor_size=sensor), rng=np.random.default_rng(0))
        capture = link.capture_at(schedule, 0.01).image
        shapes = []

        def spy(mask):
            shapes.append(mask.shape)
            return connected_components(mask)

        monkeypatch.setattr(corners, "connected_components", spy)
        FrameDecoder(codec, max_block_px=limit).extract_diagnosed(capture)
        assert shapes == [sensor]
        shapes.clear()
        FrameDecoder(codec, max_block_px=np.nextafter(limit, 0.0)).extract_diagnosed(capture)
        assert len(shapes) == 1
        assert shapes[0][0] < sensor[0] and shapes[0][1] < sensor[1]


class TestUint8BlackMask:
    @pytest.mark.parametrize("mode", ["hsv", "rgb"])
    def test_uint8_mask_equals_float_mask(self, mode):
        rng = np.random.default_rng(11)
        capture = rng.integers(0, 256, size=(24, 32, 3), dtype=np.uint8)
        # Every level appears as some pixel's max(R, G, B).
        capture[:8].reshape(-1, 3)[:256] = np.arange(256, dtype=np.uint8)[:, np.newaxis]
        image = capture / 255.0
        levels = np.arange(256) / 255.0
        thresholds = np.concatenate(
            [levels, np.nextafter(levels, -np.inf), np.nextafter(levels, np.inf),
             [-0.5, 1.5, 256.0, np.inf, -np.inf]]
        )
        for t_value in thresholds:
            classifier = ColorClassifier(t_value=float(t_value), mode=mode)
            assert np.array_equal(
                classifier.black_mask(capture), classifier.black_mask(image)
            ), f"t_value={t_value!r}"
