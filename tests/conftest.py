import json

import pytest

from boxaudit.clustering import cluster_boxes
from boxaudit.confident_learning import VerdictTable
from boxaudit.dataset_io import AnnotatedBox, BoxColumns, Category, Dataset, ImageInfo
from boxaudit.geometry import BBox
from boxaudit.reduction import reduce_dataset


def coco_payload(images, categories, annotations):
    return {"images": images, "categories": categories, "annotations": annotations}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return path


def original_box(ann_id, image_id, category_id, x, y, w, h):
    return AnnotatedBox(
        id=ann_id,
        image_id=image_id,
        category_id=category_id,
        bbox=BBox(x, y, w, h),
    )


def predicted_box(ann_id, image_id, category_id, x, y, w, h, score):
    return AnnotatedBox(
        id=ann_id,
        image_id=image_id,
        category_id=category_id,
        bbox=BBox(x, y, w, h),
        score=score,
    )


def simple_dataset(annotations, num_images=4, num_classes=3, size=1000):
    images = [ImageInfo(id=i, width=size, height=size, file_name=f"{i}.jpg") for i in range(1, num_images + 1)]
    categories = [Category(id=m, name=f"class{m}", source_id=m) for m in range(1, num_classes + 1)]
    return Dataset(images=images, categories=categories, annotations=BoxColumns.of(annotations))


def cluster_list(boxes, iou_threshold):
    """``clustering.cluster_boxes`` over a box list, in list order, as
    :class:`Cluster` objects holding the boxes of the list."""
    return cluster_boxes(BoxColumns.of(boxes), iou_threshold).clusters(boxes)


def reduce_cluster(cluster, num_classes):
    """The label and probability rows of one cluster, from ``reduce_dataset``."""
    matrices = reduce_dataset([cluster], num_classes)
    return matrices.labels[0], matrices.probs[0]


def verdict_table(verdicts):
    """A list of ``BoxVerdict`` objects as a ``VerdictTable``."""
    return VerdictTable.of_values(
        [v.annotation_id for v in verdicts],
        [v.cluster_id for v in verdicts],
        [v.image_id for v in verdicts],
        [v.quality_score for v in verdicts],
        [v.flagged for v in verdicts],
        [v.verdict_kind for v in verdicts],
        [None if v.region is None else v.region.as_list() for v in verdicts],
        [v.flagged_classes for v in verdicts],
    )


@pytest.fixture
def tiny_coco_path(tmp_path):
    payload = coco_payload(
        images=[{"id": 1, "width": 100, "height": 80, "file_name": "a.jpg"}],
        categories=[{"id": 7, "name": "cat"}],
        annotations=[{"id": 1, "image_id": 1, "category_id": 7, "bbox": [10, 10, 20, 15]}],
    )
    return write_json(tmp_path / "tiny.json", payload)
