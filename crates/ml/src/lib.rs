//! # smartfeat-ml
//!
//! From-scratch ML substrate reproducing the sklearn/Keras pieces the paper
//! evaluates with:
//!
//! - the five downstream classifiers — logistic regression (the paper's
//!   "LR"), Gaussian naive Bayes, random forest, extra-trees, and a 2×100
//!   ReLU MLP ("DNN");
//! - AUC (the paper's primary metric), accuracy and log-loss;
//! - train/test evaluation and k-fold cross-validation drivers;
//! - the three Table 6 feature-selection metrics: information gain (mutual
//!   information), recursive feature elimination, and tree-based Gini
//!   feature importance.
//!
//! Everything is deterministic given a seed, and all models implement the
//! common [`Classifier`] trait over a dense [`Matrix`].

pub mod cv;
pub mod error;
pub mod extra_trees;
pub mod forest;
pub mod logistic;
pub mod matrix;
pub mod metrics;
pub mod model;
pub mod naive_bayes;
pub mod nn;
pub mod preprocess;
pub mod select;
pub mod tree;

pub use cv::{evaluate_all_models, evaluate_models, kfold_cv_auc, kfold_cv_auc_many, ModelScores};
pub use error::{MlError, Result};
pub use extra_trees::ExtraTrees;
pub use forest::RandomForest;
pub use matrix::Matrix;
pub use metrics::{accuracy, log_loss, roc_auc};
pub use model::{Classifier, ModelKind};
pub use preprocess::Standardizer;
