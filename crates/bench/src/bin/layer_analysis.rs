//! Per-layer anatomy of a sparse spiking network: ERK density allocation,
//! post-training mask sparsity, spike rate, and CSR storage cost — the
//! layer-level view behind the paper's §III.D analysis and Fig. 5 metric.
//!
//! ```sh
//! layer_analysis [--profile smoke|small|paper] [--sparsity <f64>]
//! ```

use ndsnn::config::{DatasetKind, MethodSpec};
use ndsnn::trainer::{build_datasets, build_engine, build_network};
use ndsnn_bench::Cli;
use ndsnn_data::loader::BatchLoader;
use ndsnn_metrics::table::TextTable;
use ndsnn_snn::layers::Layer;
use ndsnn_snn::models::Architecture;
use ndsnn_snn::optim::Sgd;
use ndsnn_sparse::memory::Precision;
use ndsnn_tensor::Csr;

fn main() {
    let cli = Cli::parse(
        "layer_analysis",
        "per-layer sparsity/activity/storage analysis",
    );
    let sparsity = cli.sparsity.unwrap_or(0.95);
    let cfg = cli.profile.run_config(
        Architecture::Vgg16,
        DatasetKind::Cifar10,
        MethodSpec::Ndsnn {
            initial_sparsity: 0.7f64.min(sparsity),
            final_sparsity: sparsity,
        },
    );
    eprintln!("training {}", cfg.describe());
    let (train, _) = build_datasets(&cfg);
    let loader = BatchLoader::eval(cfg.batch_size);
    let mut net = build_network(&cfg).expect("network");
    let batches = loader.batches_per_epoch(&train);
    let mut engine = build_engine(&cfg, batches * cfg.epochs).expect("engine");
    engine.init(&mut net.layers).expect("init");
    let mut opt = Sgd::new(cfg.sgd);
    let mut step = 0;
    for epoch in 0..cfg.epochs {
        net.reset_spike_stats();
        for batch in loader.epoch(&train, epoch) {
            net.train_batch(&batch.images, &batch.labels)
                .expect("train");
            engine.before_optim(step, &mut net.layers).expect("engine");
            opt.step(&mut net.layers).expect("sgd");
            engine.after_optim(step, &mut net.layers).expect("engine");
            step += 1;
        }
    }

    // Per-layer spike rates from the final epoch.
    let rates: std::collections::BTreeMap<String, f64> = net
        .layers
        .spike_stats_per_layer()
        .into_iter()
        .map(|(n, s)| (n, s.rate()))
        .collect();

    let p = Precision::fp32_training();
    let mut table = TextTable::new(format!(
        "Per-layer anatomy — NDSNN VGG-16 @ θ_f = {sparsity:.2} ({} profile)",
        match cli.profile {
            ndsnn::profile::Profile::Smoke => "smoke",
            ndsnn::profile::Profile::Small => "small",
            ndsnn::profile::Profile::Paper => "paper",
        }
    ))
    .header(&[
        "layer",
        "weights",
        "sparsity",
        "CSR Kbit",
        "dense Kbit",
        "spike rate (input LIF)",
    ]);
    let mut csv = String::from("layer,weights,sparsity,csr_bits,dense_bits\n");
    net.layers.for_each_param(&mut |param| {
        if !param.is_sparsifiable() {
            return;
        }
        let csr = Csr::from_weight(&param.value);
        let Ok(csr) = csr else { return };
        let bits = csr.storage_bits(p.weight_bits, p.index_bits);
        let dense_bits = param.len() as u64 * p.weight_bits as u64;
        // The LIF that feeds this layer shares the index suffix by builder
        // convention (conv{i} ↔ lif{i-1} upstream); report the layer's own
        // downstream LIF when present.
        let lif_name = param.name.replace("conv", "lif").replace(".weight", "");
        let rate = rates
            .get(&lif_name)
            .map(|r| format!("{r:.4}"))
            .unwrap_or_else(|| "-".into());
        table.row(vec![
            param.name.clone(),
            format!("{}", param.len()),
            format!("{:.3}", param.value.sparsity()),
            format!("{:.1}", bits as f64 / 1e3),
            format!("{:.1}", dense_bits as f64 / 1e3),
            rate,
        ]);
        csv.push_str(&format!(
            "{},{},{},{bits},{dense_bits}\n",
            param.name,
            param.len(),
            param.value.sparsity()
        ));
    });
    println!("{}", table.render());
    println!(
        "overall mask sparsity: {:.4} | network spike rate: {:.4}",
        engine.sparsity(),
        net.spike_stats().rate()
    );
    cli.maybe_write_csv(&csv);
}
