//! Compile-and-run check for the README checkpoint/restore snippet:
//! mid-run pause to bytes, restore in a "fresh process" (a new `Network`
//! with no shared state), and digest-identical completion.

use hypersub_core::prelude::*;

#[test]
fn readme_snapshot_snippet_runs() -> Result<()> {
    let scheme = SchemeDef::builder("quotes")
        .attribute("price", 0.0, 100.0)
        .attribute("volume", 0.0, 100.0)
        .build(0);
    let build = || -> Result<Network> {
        Network::builder(32)
            .registry(Registry::new(vec![scheme.clone()]))
            .seed(7)
            .latency(SimTime::from_millis(10))
            .build()
    };
    let scenario = |net: &mut Network| -> Result<()> {
        net.subscribe(
            3,
            0,
            Subscription::new(Rect::new(vec![10.0, 0.0], vec![20.0, 100.0])),
        );
        net.run_to_quiescence();
        let t = net.time();
        for i in 0..8u64 {
            net.schedule_publish(
                t + SimTime::from_secs(10 + i * 7),
                5,
                0,
                Point(vec![15.0, 42.0]),
            )?;
        }
        Ok(())
    };

    // The uninterrupted run, for reference.
    let mut reference = build()?;
    scenario(&mut reference)?;
    reference.run_to_quiescence();

    // The snippet's split run: pause mid-run, snapshot, drop, restore.
    let mut net = build()?;
    scenario(&mut net)?;
    net.run_until(SimTime::from_secs(30));
    let bytes = net.snapshot(); // versioned, checksummed bytes
    drop(net); // process can exit here

    let mut resumed = Network::restore(&bytes)?;
    resumed.run_to_quiescence();

    assert_eq!(resumed.run_digest(), reference.run_digest());
    assert_eq!(resumed.deliveries(), reference.deliveries());
    Ok(())
}
