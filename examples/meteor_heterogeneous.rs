//! The Meteor cluster scenario (paper §3.1 and §6.1): heterogeneous
//! hardware under one XML graph.
//!
//! "Over the past 18 months, the Rocks-based 'Meteor' cluster at SDSC has
//! evolved from a homogeneous system to one that has seven different
//! types of nodes, two different CPU architectures ... one XML graph file
//! supports the dynamic kickstart file generation for three processor
//! types (IA-32, Athlon and IA-64) ... and two network types (Ethernet
//! and Myrinet)."
//!
//! Run with: `cargo run --example meteor_heterogeneous`

use rocks::kickstart::{profiles, KickstartGenerator, NodeFile};
use rocks::rpm::Arch;

fn main() {
    let mut generator =
        KickstartGenerator::new(profiles::default_profiles(), "10.1.1.1", "install/rocks-dist");

    // One graph, three processor types: the same appliance resolves to
    // different package sets per architecture.
    println!("compute appliance across Meteor's processor types:");
    for arch in [Arch::I686, Arch::Athlon, Arch::Ia64] {
        let ks = generator.generate_for_appliance("compute", arch).expect("generate");
        let myrinet = ks.packages.iter().any(|p| p == "gm");
        println!(
            "  {:<7} -> {} packages, kernel per-arch, Myrinet driver: {}",
            arch.to_string(),
            ks.package_count(),
            if myrinet { "rebuilt from source" } else { "not wired (no IA-64 adapter)" },
        );
    }

    // Appliance diversity: frontend vs compute vs dedicated NFS server
    // (Table II's nfs-0-0) from the same module set.
    println!("\nappliances from one graph:");
    for appliance in ["frontend", "compute", "nfs-server"] {
        let ks = generator.generate_for_appliance(appliance, Arch::I686).expect("generate");
        println!(
            "  {:<10} -> {} packages, {} post scripts",
            appliance,
            ks.package_count(),
            ks.posts.len()
        );
    }

    // Site customization (§6.2.3): add a node file, wire it into the
    // graph, and every future install picks it up — no golden image to
    // rebuild.
    let storage = NodeFile::parse(
        "pvfs-storage",
        r#"<kickstart>
             <description>Parallel storage server bits</description>
             <package>pvfs</package>
             <post>chkconfig --add pvfsd</post>
           </kickstart>"#,
    )
    .expect("valid node file");
    generator.profiles_mut().add_node_file(storage);
    generator.profiles_mut().graph.add_edge("nfs-server", "pvfs-storage");

    let ks = generator.generate_for_appliance("nfs-server", Arch::I686).expect("generate");
    println!(
        "\nafter site customization, nfs-server installs pvfs: {}",
        ks.packages.iter().any(|p| p == "pvfs")
    );

    // The graph itself is inspectable — Figure 4's visualization.
    println!("\nGraphviz source for the (customized) configuration graph:");
    println!("{}", rocks::kickstart::to_dot(&generator.profiles().graph));
}
