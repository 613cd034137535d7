"""skewbench: synthetic imbalanced data, resampling pre-processors, benchmarks."""

from .classify import (KnnClassifier, KnnModel, TreeClassifier, TreeModel,
                       knn_fit, knn_predict_batch, tree_fit, tree_predict_batch)
from .clustering import ClusterModel, estimate_bandwidth, mean_shift
from .core import (ClassSummary, Dataset, ExampleKind, RngSeed, SkewbenchError,
                   derive_seed, summarize)
from .datagen import (GenSpec, GroundTruth, apply_disturbance, generate_blobs,
                      generate_imbalanced, inject_rare, sample_centers)
from .evaluation import (ConfusionMatrix, ExperimentReport, ExperimentSpec,
                         Metrics, auc, confusion, gmean, metrics_from,
                         run_experiment, stratified_kfold)
from .io import read_dataset_csv, write_dataset_csv
from .resample import (CO, NCR, RO, SMOTE, Base, Sparsity, cluster_oversample,
                       ncr, random_oversample, smote, sparsity)

__version__ = "0.1.0"
