//! Workspace wiring smoke test: every sub-crate re-exported by the
//! `oxbar` facade must be constructible through `oxbar::prelude` (or the
//! corresponding facade module), proving the workspace manifests and the
//! facade re-exports agree.

use oxbar::prelude::*;

#[test]
fn one_object_from_each_subcrate_via_facade() {
    // oxbar-units
    let power = Power::from_milliwatts(25.0);
    let energy: Energy = power * Time::from_nanoseconds(2.0);
    assert!(energy.as_picojoules() > 0.0);
    let loss = Decibel::new(3.0);
    assert!(loss.attenuation_power() < 1.0);
    assert!(DataVolume::from_megabytes(1.0).fits_in(DataVolume::from_megabytes(2.0)));
    assert!(Area::from_square_millimeters(1.0).as_square_millimeters() > 0.0);
    assert!((Frequency::from_gigahertz(10.0).period().as_nanoseconds() - 0.1).abs() < 1e-12);

    // oxbar-photonics
    let sim = CrossbarSimulator::ideal(CrossbarConfig::new(4, 4));
    let outputs = sim.run(&[1.0, 0.5, 0.25, 0.0], &vec![vec![0.5; 4]; 4]);
    assert_eq!(outputs.len(), 4);

    // oxbar-pcm
    let mut cell = oxbar::pcm::PcmCell::pristine();
    cell.set_crystalline_fraction(0.5);
    assert!(cell.transmission() > 0.0);

    // oxbar-electronics
    let adc = oxbar::electronics::Adc::paper_default(Frequency::from_gigahertz(10.0));
    assert!(adc.power().as_watts() > 0.0);

    // oxbar-memory
    let sram = oxbar::memory::sram::SramBlock::new(
        oxbar::memory::sram::SramKind::Input,
        DataVolume::from_megabytes(1.0),
    );
    assert!(sram.area().as_square_millimeters() > 0.0);

    // oxbar-nn
    let shape = TensorShape::new(8, 8, 3);
    let mut net = Network::new("smoke", shape);
    net.push(oxbar::nn::Layer::Conv2d(oxbar::nn::Conv2d::new(
        "conv", shape, 3, 3, 4, 1, 1,
    )));
    assert!(net.total_macs() > 0);

    // oxbar-dataflow
    let engine = DataflowEngine::paper_default(16, 16, 1);
    let spec: NetworkSpec = engine.analyze(&net);
    assert!(spec.total_compute_cycles > 0);
    let conv = net.conv_like_layers().next().expect("one conv");
    let plan = FoldPlan::plan(&conv, 16, 16, 1);
    assert!(plan.row_folds >= 1 && plan.col_folds >= 1);

    // oxbar-core
    let chip = Chip::new(ChipConfig::paper_optimal().with_cores(CoreCount::Single));
    let report: ChipReport = chip.evaluate(&net);
    assert!(report.ips > 0.0);
    assert!(report.power.as_watts() > 0.0);
    let tech = TechnologyParams::paper_default();
    assert!(tech == chip.config().tech);

    // oxbar-sim: a tiny network end to end through the device chain.
    let sim_net = oxbar::nn::synthetic::small_network(1);
    let image = oxbar::nn::synthetic::activations(sim_net.input(), 6, 2);
    let filters = oxbar::nn::synthetic::filter_banks(&sim_net, 6, 3);
    let fidelity: InferenceFidelity =
        run_inference(&sim_net, &SimConfig::ideal(32, 32), &[image], &filters).unwrap();
    assert!(fidelity.exact);
    let _ = DeviceExecutor::new(SimConfig::noisy(32, 32));

    // oxbar-serve: admit that network and serve one request through the
    // batched engine.
    let mut serve_engine = ServeEngine::new(ServeConfig::new(SimConfig::ideal(32, 32)));
    let model = serve_engine
        .admit(oxbar::serve::catalog::spec_from_network(sim_net, 3))
        .unwrap();
    let request = InferRequest {
        model,
        input: oxbar::nn::synthetic::activations(serve_engine.input_shape(model), 6, 2),
        arrival: 0,
        deadline: None,
    };
    serve_engine.try_submit(request).expect("valid request");
    let completions = serve_engine.drain_traced().completions;
    assert_eq!(completions.len(), 1);
    assert_eq!(serve_engine.stats().requests, 1);
}
