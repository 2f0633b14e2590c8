//! Cross-crate integration tests: full training pipelines through every
//! sparse-training method at smoke scale.

use ndsnn::config::{DatasetKind, MethodSpec, RunConfig};
use ndsnn::profile::Profile;
use ndsnn::trainer::{build_datasets, run, run_with_data};
use ndsnn_snn::models::Architecture;

fn smoke(arch: Architecture, dataset: DatasetKind, method: MethodSpec) -> RunConfig {
    Profile::Smoke.run_config(arch, dataset, method)
}

#[test]
fn every_method_trains_end_to_end() {
    let methods = [
        MethodSpec::Dense,
        MethodSpec::Ndsnn {
            initial_sparsity: 0.5,
            final_sparsity: 0.9,
        },
        MethodSpec::Set { sparsity: 0.9 },
        MethodSpec::Rigl { sparsity: 0.9 },
        MethodSpec::Lth {
            final_sparsity: 0.9,
            rounds: 1,
        },
        MethodSpec::Admm {
            target_sparsity: 0.9,
        },
    ];
    let probe = smoke(Architecture::Vgg16, DatasetKind::Cifar10, MethodSpec::Dense);
    let (train, test) = build_datasets(&probe);
    for method in methods {
        let cfg = smoke(Architecture::Vgg16, DatasetKind::Cifar10, method);
        let result = run_with_data(&cfg, &train, &test)
            .unwrap_or_else(|e| panic!("{} failed: {e}", method.label()));
        assert_eq!(result.epochs.len(), cfg.epochs, "{}", method.label());
        assert!(
            result.epochs.iter().all(|e| e.train_loss.is_finite()),
            "{} diverged",
            method.label()
        );
        // Sparse methods end sparse; dense stays dense.
        let expected = method.final_sparsity();
        if method.label() == "ADMM" {
            // ADMM only reaches the target after retrain_start (60% of
            // steps); at smoke scale rounding can leave it slightly off.
            assert!(
                result.final_sparsity > expected - 0.1,
                "ADMM sparsity {}",
                result.final_sparsity
            );
        } else {
            assert!(
                (result.final_sparsity - expected).abs() < 0.05,
                "{}: sparsity {} (expected {expected})",
                method.label(),
                result.final_sparsity
            );
        }
    }
}

#[test]
fn plif_network_trains() {
    use ndsnn_snn::encoder::Encoding;
    use ndsnn_snn::models::{vgg16, ModelConfig, NeuronKind};
    use ndsnn_snn::network::SpikingNetwork;
    use ndsnn_snn::optim::{Sgd, SgdConfig};
    use rand::{rngs::StdRng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(11);
    let model_cfg = ModelConfig {
        in_channels: 3,
        image_size: 8,
        num_classes: 4,
        width_mult: 1.0 / 32.0,
        lif: Default::default(),
        neuron: NeuronKind::Plif,
    };
    let layers = vgg16(&model_cfg, &mut rng).unwrap();
    let mut net = SpikingNetwork::new(layers, 2, Encoding::Direct, 1).unwrap();
    let x = ndsnn_tensor::init::uniform([8, 3, 8, 8], 0.0, 1.0, &mut rng);
    let labels = vec![0, 1, 2, 3, 0, 1, 2, 3];
    let mut opt = Sgd::new(SgdConfig {
        lr: 0.1,
        momentum: 0.9,
        weight_decay: 0.0,
    });
    let first = net.train_batch(&x, &labels).unwrap().loss;
    let mut last = first;
    for _ in 0..10 {
        opt.step(&mut net.layers).unwrap();
        last = net.train_batch(&x, &labels).unwrap().loss;
    }
    assert!(last.is_finite());
    assert!(
        last <= first * 1.2,
        "PLIF training diverged: {first} -> {last}"
    );
}

#[test]
fn resnet19_trains_with_ndsnn() {
    let cfg = smoke(
        Architecture::Resnet19,
        DatasetKind::Cifar100,
        MethodSpec::Ndsnn {
            initial_sparsity: 0.6,
            final_sparsity: 0.9,
        },
    );
    let result = run(&cfg).unwrap();
    assert!((result.final_sparsity - 0.9).abs() < 0.05);
    assert!(result.epochs.iter().all(|e| e.spike_rate <= 1.0));
}

#[test]
fn lenet5_trains_on_larger_images() {
    let mut cfg = smoke(
        Architecture::Lenet5,
        DatasetKind::Cifar10,
        MethodSpec::Admm {
            target_sparsity: 0.5,
        },
    );
    cfg.image_size = 16; // LeNet-5 needs >= 12
    let result = run(&cfg).unwrap();
    assert!(result.final_sparsity > 0.4);
}

#[test]
fn tiny_imagenet_shapes_flow_through() {
    let cfg = smoke(
        Architecture::Vgg16,
        DatasetKind::TinyImageNet,
        MethodSpec::Rigl { sparsity: 0.8 },
    );
    let result = run(&cfg).unwrap();
    assert!((result.final_sparsity - 0.8).abs() < 0.05);
}

#[test]
fn timestep_2_matches_fig4_setting() {
    let mut cfg = smoke(
        Architecture::Vgg16,
        DatasetKind::Cifar10,
        MethodSpec::Ndsnn {
            initial_sparsity: 0.5,
            final_sparsity: 0.9,
        },
    );
    cfg.timesteps = 2;
    let result = run(&cfg).unwrap();
    assert_eq!(result.config.timesteps, 2);
    assert!(result.best_test_acc >= 0.0);
}

#[test]
fn deterministic_given_seed() {
    let cfg = smoke(
        Architecture::Vgg16,
        DatasetKind::Cifar10,
        MethodSpec::Ndsnn {
            initial_sparsity: 0.5,
            final_sparsity: 0.9,
        },
    );
    let a = run(&cfg).unwrap();
    let b = run(&cfg).unwrap();
    assert_eq!(a.best_test_acc, b.best_test_acc);
    assert_eq!(a.final_sparsity, b.final_sparsity);
    let la: Vec<f64> = a.epochs.iter().map(|e| e.train_loss).collect();
    let lb: Vec<f64> = b.epochs.iter().map(|e| e.train_loss).collect();
    assert_eq!(la, lb);
}

#[test]
fn different_seeds_differ() {
    let mut cfg = smoke(Architecture::Vgg16, DatasetKind::Cifar10, MethodSpec::Dense);
    let a = run(&cfg).unwrap();
    cfg.seed = 99;
    let b = run(&cfg).unwrap();
    let la: Vec<f64> = a.epochs.iter().map(|e| e.train_loss).collect();
    let lb: Vec<f64> = b.epochs.iter().map(|e| e.train_loss).collect();
    assert_ne!(la, lb);
}

#[test]
fn run_result_serializes() {
    let cfg = smoke(Architecture::Vgg16, DatasetKind::Cifar10, MethodSpec::Dense);
    let result = run(&cfg).unwrap();
    // serde round trip through a self-describing format is covered by the
    // tensor crate; here just confirm the derive compiles and is stable.
    let cloned = result.clone();
    assert_eq!(cloned.best_test_acc, result.best_test_acc);
}
