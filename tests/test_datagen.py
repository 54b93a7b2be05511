"""Synthetic data: determinism, coverage, disk round trip, domain shift."""

import hashlib
import os

import numpy as np
import pytest

from helpers import failing_open
from promptcl import (
    Dataset,
    ShiftParams,
    SyntheticSpec,
    apply_domain_shift,
    generate_dataset,
    load_dataset,
    save_dataset,
)
from promptcl import datagen
from promptcl.datagen import class_stamps, header_hash
from promptcl.seeds import seeded_rng

SMALL = dict(n_classes=6, image_side=8, stamp_side=4, n_train=60, n_test=40,
             min_labels=1, max_labels=2, min_positive=5, stamp_seed=3)


def small_spec(**overrides):
    kw = {**SMALL, **overrides}
    return SyntheticSpec(**kw)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(image_side=10)
    with pytest.raises(ValueError):
        small_spec(min_labels=3, max_labels=2)
    with pytest.raises(ValueError):
        small_spec(max_labels=5)  # only 4 grid cells on an 8x8 image
    with pytest.raises(ValueError):
        ShiftParams(contrast=0.0)


def test_class_names_are_zero_padded_and_sorted():
    names = small_spec().class_names
    assert names == sorted(names)
    assert names[0] == "class_00" and names[-1] == "class_05"


def test_generation_is_deterministic():
    a = generate_dataset(small_spec(), seed=5)
    b = generate_dataset(small_spec(), seed=5)
    assert np.array_equal(a.train_images, b.train_images)
    assert np.array_equal(a.train_labels, b.train_labels)
    assert np.array_equal(a.test_images, b.test_images)
    c = generate_dataset(small_spec(), seed=6)
    assert not np.array_equal(a.train_images, c.train_images)


def test_label_coverage_and_cardinality():
    spec = small_spec()
    ds = generate_dataset(spec, seed=1)
    for labels in (ds.train_labels, ds.test_labels):
        per_class = labels.sum(axis=0)
        assert per_class.min() >= spec.min_positive
        per_image = labels.sum(axis=1)
        assert per_image.min() >= spec.min_labels
        assert per_image.max() <= spec.max_labels


def test_stamps_depend_on_stamp_seed_only():
    s1 = class_stamps(small_spec())
    s2 = class_stamps(small_spec(n_train=999))
    assert np.array_equal(s1, s2)
    s3 = class_stamps(small_spec(stamp_seed=4))
    assert not np.array_equal(s1, s3)
    assert np.abs(s1).max() <= 1.0


def test_positive_classes_leave_stamp_signal():
    # With noise well below stamp amplitude, the labelled class's stamp
    # must appear somewhere in the cell grid of each positive image.
    spec = small_spec(noise_sigma=0.01)
    ds = generate_dataset(spec, seed=2)
    stamps = class_stamps(spec)
    g, s = spec.grid_side, spec.stamp_side
    img = ds.train_images[0]
    positives = np.flatnonzero(ds.train_labels[0])
    for cls in positives:
        best = min(
            np.abs(img[r * s:(r + 1) * s, c * s:(c + 1) * s] - stamps[cls]).max()
            for r in range(g)
            for c in range(g)
        )
        assert best <= 5 * spec.noise_sigma


def test_round_trip_preserves_bytes(tmp_path):
    ds = generate_dataset(small_spec(), seed=8, out_dir=str(tmp_path))
    back = load_dataset(str(tmp_path))
    assert back.class_names == ds.class_names
    assert np.array_equal(back.train_images, ds.train_images)
    assert np.array_equal(back.train_labels, ds.train_labels)
    assert np.array_equal(back.test_images, ds.test_images)
    assert np.array_equal(back.test_labels, ds.test_labels)
    assert back.spec_hash == ds.spec_hash


def tree_digest(root):
    h = hashlib.sha256()
    for base, _, files in sorted(os.walk(root)):
        for f in sorted(files):
            rel = os.path.relpath(os.path.join(base, f), root)
            h.update(rel.encode())
            h.update(open(os.path.join(base, f), "rb").read())
    return h.hexdigest()


def test_save_twice_is_byte_identical(tmp_path):
    ds = generate_dataset(small_spec(), seed=8)
    save_dataset(ds, str(tmp_path / "a"))
    save_dataset(ds, str(tmp_path / "b"))
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


def test_a_smaller_dataset_saved_over_a_larger_one_loads(tmp_path):
    generate_dataset(small_spec(), seed=8, out_dir=str(tmp_path / "reused"))
    smaller = small_spec(n_train=40)
    generate_dataset(smaller, seed=8, out_dir=str(tmp_path / "reused"))
    generate_dataset(smaller, seed=8, out_dir=str(tmp_path / "fresh"))
    assert load_dataset(str(tmp_path / "reused")).train_images.shape[0] == 40
    assert tree_digest(tmp_path / "reused") == tree_digest(tmp_path / "fresh")


def test_sample_file_layout_is_documented_format(tmp_path):
    ds = generate_dataset(small_spec(), seed=8, out_dir=str(tmp_path))
    blob = (tmp_path / "train" / "0000.sample").read_bytes()
    side, n_cls = 8, 6
    assert len(blob) == side * side * 8 + n_cls
    pixels = np.frombuffer(blob[: side * side * 8], dtype="<f8").reshape(side, side)
    assert np.array_equal(pixels, ds.train_images[0])
    assert np.array_equal(np.frombuffer(blob[side * side * 8:], dtype=np.uint8), ds.train_labels[0])


def test_hand_written_dataset_loads(tmp_path):
    # build a 1-class, 1-sample-per-split directory from first principles
    side, n_cls = 4, 1
    img = np.arange(16, dtype="<f8").reshape(4, 4)
    blob = img.tobytes() + bytes([1])
    for split in ("train", "test"):
        (tmp_path / split).mkdir()
        (tmp_path / split / "0000.sample").write_bytes(blob)
    spec_hash = header_hash(n_cls, side, 1, 1, ["thing"])
    (tmp_path / "manifest.txt").write_text(
        "\n".join([
            "n_classes 1",
            "image_side 4",
            "n_train 1",
            "n_test 1",
            "classes thing",
            f"spec_hash {spec_hash}",
            # a split's hash is that of its sample files' bytes, in index order
            f"train_hash {hashlib.sha256(blob).hexdigest()}",
            f"test_hash {hashlib.sha256(blob).hexdigest()}",
        ]) + "\n"
    )
    ds = load_dataset(str(tmp_path))
    assert ds.class_names == ["thing"]
    assert np.array_equal(ds.train_images[0], img)
    assert ds.train_labels[0, 0] == 1


def test_load_rejects_truncated_sample(tmp_path):
    generate_dataset(small_spec(), seed=8, out_dir=str(tmp_path))
    victim = tmp_path / "train" / "0003.sample"
    victim.write_bytes(victim.read_bytes()[:-2])
    with pytest.raises(ValueError) as exc:
        load_dataset(str(tmp_path))
    assert "0003.sample" in str(exc.value)


def test_load_names_the_file_with_a_label_byte_outside_0_1(tmp_path):
    generate_dataset(small_spec(), seed=8, out_dir=str(tmp_path))
    n_train = len(os.listdir(tmp_path / "train"))
    victim = tmp_path / "train" / f"{n_train // 2:04d}.sample"
    blob = bytearray(victim.read_bytes())
    blob[-3] = 2
    victim.write_bytes(bytes(blob))
    with pytest.raises(ValueError) as exc:
        load_dataset(str(tmp_path))
    assert str(exc.value) == f"load_dataset: sample file {victim} has label bytes outside 0/1"


def test_load_rejects_content_tampering(tmp_path):
    generate_dataset(small_spec(), seed=8, out_dir=str(tmp_path))
    victim = tmp_path / "test" / "0001.sample"
    blob = bytearray(victim.read_bytes())
    blob[0] ^= 0xFF
    victim.write_bytes(bytes(blob))
    with pytest.raises(ValueError) as exc:
        load_dataset(str(tmp_path))
    assert "hash mismatch" in str(exc.value)


def test_load_rejects_spec_hash_mismatch(tmp_path):
    generate_dataset(small_spec(), seed=8, out_dir=str(tmp_path))
    manifest = tmp_path / "manifest.txt"
    text = manifest.read_text().replace("n_classes 6", "n_classes 6\n# edited")
    text = text.replace("image_side 8", "image_side 16")
    manifest.write_text(text)
    with pytest.raises(ValueError) as exc:
        load_dataset(str(tmp_path))
    assert "spec_hash mismatch" in str(exc.value)


def test_load_reports_missing_pieces(tmp_path):
    with pytest.raises(ValueError):
        load_dataset(str(tmp_path))  # no manifest at all
    (tmp_path / "manifest.txt").write_text("n_classes 2\n")
    with pytest.raises(ValueError) as exc:
        load_dataset(str(tmp_path))
    assert "missing required fields" in str(exc.value)


def test_a_split_of_more_than_ten_thousand_samples_loads_in_index_order(tmp_path):
    # 10000.sample sorts between 1000.sample and 1001.sample by name
    n = 10_001
    images = np.arange(n, dtype=np.float64).reshape(n, 1, 1)
    labels = (np.arange(n) % 2).astype(np.uint8).reshape(n, 1)
    ds = Dataset(["thing"], images, labels, images[:1], labels[:1], header_hash(1, 1, n, 1, ["thing"]))
    save_dataset(ds, str(tmp_path))
    back = load_dataset(str(tmp_path))
    assert back.train_images.tobytes() == images.tobytes()
    assert back.train_labels.tobytes() == labels.tobytes()


def test_load_rejects_wrong_sample_count(tmp_path):
    generate_dataset(small_spec(), seed=8, out_dir=str(tmp_path))
    os.remove(tmp_path / "train" / "0000.sample")
    with pytest.raises(ValueError) as exc:
        load_dataset(str(tmp_path))
    assert "60" in str(exc.value) and "59" in str(exc.value)


def leftover_temporaries(root):
    return [os.path.join(base, f) for base, _, files in os.walk(root) for f in files if f.endswith(".tmp")]


@pytest.mark.parametrize("target", ["train/0002.sample", "test/0000.sample", "manifest.txt"])
def test_a_failed_save_leaves_the_file_it_was_replacing_intact(tmp_path, monkeypatch, target):
    generate_dataset(small_spec(), seed=8, out_dir=str(tmp_path))
    old = (tmp_path / target).read_bytes()
    monkeypatch.setattr(datagen, "open", failing_open(tmp_path / target), raising=False)
    with pytest.raises(OSError, match="No space"):
        save_dataset(generate_dataset(small_spec(), seed=9), str(tmp_path))
    assert (tmp_path / target).read_bytes() == old
    assert leftover_temporaries(tmp_path) == []


def test_load_counts_no_leftover_temporary_file_as_a_sample(tmp_path):
    ds = generate_dataset(small_spec(), seed=8, out_dir=str(tmp_path))
    # what a writer killed before its rename leaves beside its sample
    (tmp_path / "train" / "0000.sample.4321.tmp").write_bytes(b"\0" * 7)
    back = load_dataset(str(tmp_path))
    assert back.train_images.tobytes() == ds.train_images.tobytes()


# -- domain shift ---------------------------------------------------------


def test_shift_is_invertible():
    # Shifted cell k holds source cell perm[k] under the affine map, so
    # putting each cell back and undoing the map restores the images.
    shift = ShiftParams(contrast=0.7, offset=0.2, cell_perm_seed=5, cell_side=4)
    ds = generate_dataset(small_spec(), seed=3)
    shifted = apply_domain_shift(ds, shift)
    assert not np.allclose(shifted.train_images, ds.train_images)
    assert np.array_equal(shifted.train_labels, ds.train_labels)
    perm = seeded_rng(5, "cell-permutation").permutation(4)
    assert list(perm) != [0, 1, 2, 3]

    def cell(images, k):
        r, c = divmod(int(k), 2)
        return images[:, 4 * r:4 * r + 4, 4 * c:4 * c + 4]

    for original, out in ((ds.train_images, shifted.train_images), (ds.test_images, shifted.test_images)):
        restored = np.empty_like(original)
        for k, src in enumerate(perm):
            assert np.array_equal(cell(out, k), cell(original, src) * 0.7 + 0.2)
            cell(restored, src)[...] = (cell(out, k) - 0.2) / 0.7
        assert np.allclose(restored, original, atol=1e-12)


def test_affine_only_shift():
    shift = ShiftParams(contrast=2.0, offset=-0.5)
    ds = generate_dataset(small_spec(), seed=3)
    shifted = apply_domain_shift(ds, shift)
    assert np.allclose(shifted.train_images, ds.train_images * 2.0 - 0.5, atol=1e-15)


def test_cell_permutation_is_seed_stable():
    shift = ShiftParams(cell_perm_seed=9, cell_side=4)
    ds = generate_dataset(small_spec(), seed=3)
    a = apply_domain_shift(ds, shift)
    b = apply_domain_shift(ds, shift)
    assert np.array_equal(a.train_images, b.train_images)


def test_shift_rejects_indivisible_cells():
    shift = ShiftParams(cell_perm_seed=1, cell_side=3)
    ds = generate_dataset(small_spec(), seed=3)
    with pytest.raises(ValueError):
        apply_domain_shift(ds, shift)


def test_spec_shift_applies_at_generation():
    shift = ShiftParams(contrast=1.5, offset=0.1)
    plain = generate_dataset(small_spec(), seed=4)
    shifted = generate_dataset(small_spec(shift=shift), seed=4)
    assert np.allclose(shifted.train_images, plain.train_images * 1.5 + 0.1, atol=1e-14)
    assert np.array_equal(shifted.train_labels, plain.train_labels)


def test_coverage_failure_raises():
    # 6 images of 1-2 labels hold 2 positives of each of 6 classes only if every draw is a perfect cover
    with pytest.raises(ValueError, match="could not cover every class 2 times in 6 train images"):
        generate_dataset(small_spec(n_train=6, min_positive=2), seed=0)
