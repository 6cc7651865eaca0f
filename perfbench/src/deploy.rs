//! Starting and stopping the system under test: an in-process leader
//! behind a loopback `NetServer`, plus a follower where the workload
//! has one.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

use risgraph_common::Result;
use risgraph_core::server::Server;
use risgraph_net::{NetServer, ReplicaServer};

use crate::workload::{Deployment, Inputs};

/// Scratch space for WAL files, inside the working directory.
pub const SCRATCH_DIR: &str = ".perfbench_tmp";

/// A fresh, empty directory for one deployment's files.
pub fn scratch_dir(tag: &str) -> Result<PathBuf> {
    let dir = Path::new(SCRATCH_DIR).join(format!("{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A leader that has loaded its preload, started without the serving
/// tier (the in-process rung drives it through `Session`s).
pub struct Leader {
    /// The server.
    pub server: Server,
    /// `Server::load_edges` wall time, milliseconds.
    pub load_ms: f64,
    dir: PathBuf,
}

impl Leader {
    /// Start the pinned leader for `inputs` and load the preload.
    pub fn start(inputs: &Inputs, tag: &str) -> Result<Leader> {
        let dir = scratch_dir(tag)?;
        let cfg = Deployment::pinned(inputs.workload, Some(dir.join("wal"))).server;
        let server = Server::start(vec![inputs.algo.dyn_algorithm()], inputs.capacity, cfg)?;
        let t = Instant::now();
        server.load_edges(&inputs.preload);
        let load_ms = t.elapsed().as_secs_f64() * 1e3;
        Ok(Leader {
            server,
            load_ms,
            dir,
        })
    }

    /// Stop the server and remove its files.
    pub fn shutdown(self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A serving leader, with its follower when the workload has one.
pub struct Deployed {
    /// The leader behind the loopback serving tier.
    pub net: NetServer,
    /// The follower, replicating over loopback.
    pub follower: Option<ReplicaServer>,
    /// `load_edges` wall times of the leader and the follower, ms.
    pub load_ms: Vec<f64>,
    dir: PathBuf,
}

impl Deployed {
    /// Start the pinned deployment for `inputs`: leader, preload,
    /// serving tier, then the follower and its preload.
    pub fn start(inputs: &Inputs, tag: &str) -> Result<Deployed> {
        let Leader {
            server,
            load_ms,
            dir,
        } = Leader::start(inputs, tag)?;
        let deployment = Deployment::pinned(inputs.workload, None);
        let net = NetServer::serve(server, deployment.net)?;
        let mut loads = vec![load_ms];
        let follower = if deployment.follower {
            let f = ReplicaServer::start(
                vec![inputs.algo.dyn_algorithm()],
                inputs.capacity,
                deployment.server,
                Deployment::follower_config(net.local_addr().to_string()),
            )?;
            let t = Instant::now();
            f.replica().load_edges(&inputs.preload);
            loads.push(t.elapsed().as_secs_f64() * 1e3);
            Some(f)
        } else {
            None
        };
        Ok(Deployed {
            net,
            follower,
            load_ms: loads,
            dir,
        })
    }

    /// The leader's loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.net.local_addr()
    }

    /// The leader.
    pub fn server(&self) -> &Server {
        self.net.server()
    }

    /// Stop the follower and the leader, and remove their files.
    pub fn shutdown(self) {
        if let Some(f) = self.follower {
            f.shutdown();
        }
        self.net.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
