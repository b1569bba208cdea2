//! One fast smoke test per workspace crate. `cargo test -q` at the root
//! runs only the root package's tests; each crate's own suite runs under
//! `cargo test --workspace`. These tests call every crate's basic API
//! once, each well under a second in a debug build, so a green root run
//! also says that no crate's basic API is broken.

use poi360::core::config::{CompressionScheme, NetworkKind, RateControlKind, SessionConfig};
use poi360::core::session::Session;
use poi360::lte::buffer::FirmwareBuffer;
use poi360::lte::scheduler::{PfScheduler, SchedulerConfig};
use poi360::metrics::{jain_index, Cdf};
use poi360::net::packet::{FrameTag, Packet};
use poi360::net::pipe::{DelayPipe, PipeConfig};
use poi360::sim::json::{parse_json, JsonObject};
use poi360::sim::rng::SimRng;
use poi360::sim::time::{SimDuration, SimTime};
use poi360::transport::rtp::{Packetizer, Reassembler};
use poi360::video::compression::CompressionMode;
use poi360::video::content::ContentModel;
use poi360::video::encoder::{Encoder, EncoderConfig};
use poi360::video::roi::Roi;
use poi360::viewport::motion::{HeadMotion, MotionConfig, UserArchetype};

fn ms(n: u64) -> SimTime {
    SimTime::from_millis(n)
}

#[test]
fn sim_rng_and_json_round_trip() {
    let (mut a, mut b) = (SimRng::from_seed(7), SimRng::from_seed(7));
    assert_eq!(a.next_u64(), b.next_u64(), "one seed, one stream");
    let text = JsonObject::new().field("t_us", &1500u64).field("src", &"fg.00").finish();
    let v = parse_json(&text).expect("the writer's JSON parses");
    assert_eq!(v.get("t_us").and_then(|x| x.as_f64()), Some(1500.0));
    assert_eq!(v.get("src").and_then(|x| x.as_str()), Some("fg.00"));
}

#[test]
fn lte_buffer_serves_what_it_queued_and_tbs_grows_with_prbs() {
    let mut buffer = FirmwareBuffer::new(10_000);
    let tag = FrameTag { frame_no: 0, index: 0, count: 1 };
    assert!(buffer.enqueue(Packet::video(0, 1_200, ms(0), tag), ms(1)));
    assert_eq!(buffer.level_bytes(), 1_200);
    let mut served = Vec::new();
    buffer.serve_into(2_000, &mut served);
    assert_eq!(served.len(), 1);
    assert!(buffer.is_empty());
    let grant = |ue_base_prbs| {
        let cfg = SchedulerConfig {
            ue_base_prbs,
            share_jitter: 0.0,
            harq_fail_prob: 0.0,
            ..Default::default()
        };
        PfScheduler::new(cfg, 1).grant_bits(1_000_000, 9, 0.0)
    };
    assert!(grant(20.0) > grant(5.0), "a wider PRB share carries a larger TBS");
}

#[test]
fn net_pipe_delivers_after_its_delay() {
    let mut pipe = DelayPipe::new(PipeConfig::wireline_transit(), 1);
    pipe.send(42u32, ms(0));
    let mut delivered = Vec::new();
    pipe.poll_into(ms(1_000), &mut delivered);
    assert_eq!(pipe.sent(), 1);
    assert_eq!(delivered.len() as u64 + pipe.lost(), 1, "delivered or lost, once");
    assert!(delivered.iter().all(|&(at, item)| item == 42 && at > ms(0)));
}

#[test]
fn video_encoder_spends_bytes_on_a_frame() {
    let cfg = EncoderConfig::default();
    let grid = cfg.geometry.grid;
    let mut encoder = Encoder::new(cfg, 3);
    let matrix = CompressionMode::geometric(1.4).matrix(&grid, Roi::front(&grid).center);
    let content = ContentModel::new(grid, 3);
    let frame = encoder.encode(ms(0), Roi::front(&grid), &matrix, &content, 2.0e6);
    assert_eq!(frame.frame_no, 0);
    assert!(frame.bytes > 0);
}

#[test]
fn viewport_head_motion_stays_on_the_sphere() {
    let mut head = HeadMotion::new(UserArchetype::Saccadic, MotionConfig::default(), 5);
    for _ in 0..100 {
        head.step(SimDuration::from_millis(10));
    }
    assert!((0.0..360.0).contains(&head.yaw()), "yaw {}", head.yaw());
    assert!(head.pitch().abs() <= 90.0, "pitch {}", head.pitch());
}

#[test]
fn transport_reassembles_what_it_packetized() {
    let mut packetizer = Packetizer::new();
    let packets = packetizer.packetize(0, 5_000, ms(0));
    assert!(packets.len() > 1, "5 000 bytes need several packets");
    let mut reassembler = Reassembler::new(SimDuration::from_millis(500));
    let done: Vec<_> = packets.iter().filter_map(|p| reassembler.on_packet(p, ms(5))).collect();
    assert_eq!(done.len(), 1, "one frame, complete once");
    assert_eq!(reassembler.completed(), 1);
}

#[test]
fn metrics_cdf_and_fairness() {
    let cdf = Cdf::new(vec![3.0, 1.0, 2.0, 4.0]);
    assert_eq!(cdf.len(), 4);
    assert_eq!(cdf.at(2.0), 0.5);
    assert!((jain_index(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
}

#[test]
fn analyse_ingests_a_probe_line() {
    let line =
        r#"{"t_us":1000,"src":"fg.00","name":"cell.tbs_bits","kind":"event","value":2384.0}"#;
    let trace =
        poi360_analyse::ingest::RunTrace::parse_bytes(line.as_bytes()).expect("a writer line");
    assert_eq!(trace.len(), 1);
    assert_eq!(trace.records[0].value, 2384.0);
    assert_eq!(trace.srcs.name(trace.records[0].src), "fg.00");
    assert_eq!(trace.generic_records(), 0);
}

#[test]
fn core_session_runs_a_second() {
    let report = Session::new(SessionConfig {
        scheme: CompressionScheme::Poi360,
        rate_control: RateControlKind::Fbcc,
        network: NetworkKind::Wireline,
        user: UserArchetype::Anchored,
        duration: SimDuration::from_secs(1),
        seed: 1,
        ..Default::default()
    })
    .run();
    assert!(report.frames_sent > 0);
    assert!(report.frames_delivered + report.frames_lost <= report.frames_sent);
}

#[test]
fn bench_cli_parses_a_command_line() {
    let args: Vec<String> = ["--smoke", "--seed", "9"].iter().map(|s| s.to_string()).collect();
    let opts = poi360_bench::cli::parse(&args, &["--smoke", "--seed N"]).expect("accepted");
    assert!(opts.smoke);
    assert_eq!(opts.seed, Some(9));
    assert!(poi360_bench::cli::parse(&["--full".to_string()], &["--smoke"]).is_err());
    let zero: Vec<String> = ["--repeats", "0"].iter().map(|s| s.to_string()).collect();
    assert!(poi360_bench::cli::parse(&zero, &["--repeats N"]).is_err(), "zero repeats");
}

#[test]
fn testkit_generator_replays_its_seed() {
    let draw = |seed| poi360_testkit::Gen::from_seed(seed).u64_in(0, 1_000_000);
    assert_eq!(draw(11), draw(11));
    poi360_testkit::prop_check!("crate_smoke", 16, |g| {
        let x = g.u32_in(1, 100);
        poi360_testkit::prop_assert!((1..=100).contains(&x));
        Ok(())
    });
}

#[test]
fn testkit_results_dir_follows_the_tree_a_binary_runs_in() {
    use poi360_testkit::workspace_root;
    use std::path::Path;
    // An original tree and a copy of it with its `target/`, side by side.
    let base = std::env::temp_dir().join(format!("poi360-copied-tree-{}", std::process::id()));
    for tree in ["orig", "copy"] {
        let bin = base.join(tree).join("target/release");
        std::fs::create_dir_all(&bin).unwrap();
        std::fs::create_dir_all(base.join(tree).join("crates/bench")).unwrap();
        std::fs::write(base.join(tree).join("Cargo.toml"), "[package]\nname = \"poi360\"\n")
            .unwrap();
        std::fs::write(
            base.join(tree).join("crates/bench/Cargo.toml"),
            "[package]\nname = \"poi360-bench\"\n",
        )
        .unwrap();
    }
    let (orig, copy) = (base.join("orig"), base.join("copy"));
    let exe = copy.join("target/release/reproduce");
    // The copy's binary writes into the copy, wherever it is run from.
    assert_eq!(workspace_root([exe.as_path(), &orig.join("crates/bench")]), Some(copy.clone()));
    // A binary outside any tree falls back to the working directory's.
    let outside = base.join("elsewhere/reproduce");
    assert_eq!(workspace_root([outside.as_path(), &copy.join("crates/bench")]), Some(copy.clone()));
    assert_eq!(workspace_root([outside.as_path(), Path::new("/")]), None);
    std::fs::remove_dir_all(&base).unwrap();
}
