//! Site configuration as one persistable document.
//!
//! "The UNICORE site administrator together with the Vsite system
//! administrator establishes the environment for running UNICORE. This
//! includes setting up the translation tables ... and the connection
//! between UNICORE server and batch system" (§5.5). A [`SiteConfig`]
//! captures that environment — resource pages, translation tables, the
//! UUDB, trusted peers — in a single DER document, so a site can be
//! version-controlled, shipped, and booted reproducibly.

use crate::server::UnicoreServer;
use unicore_codec::{CodecError, DerCodec, DerReader, DerWriter};
// TranslationTable's DerCodec impl lives in `unicore-njs` (orphan rule).
use unicore_gateway::{Gateway, Uudb};
use unicore_njs::{ShardedNjs, TranslationTable};
use unicore_resources::ResourcePage;

/// One Vsite's configured environment.
#[derive(Debug, Clone, PartialEq)]
pub struct VsiteConfig {
    /// The published resource page (also sizes the batch system).
    pub page: ResourcePage,
    /// The site-authored translation table.
    pub table: TranslationTable,
}

/// A whole Usite's configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteConfig {
    /// The Usite name.
    pub usite: String,
    /// Vsites in publication order.
    pub vsites: Vec<VsiteConfig>,
    /// The user database.
    pub uudb: Uudb,
    /// DNs of peer UNICORE servers trusted for NJS–NJS requests.
    pub peer_servers: Vec<String>,
}

impl SiteConfig {
    /// Boots a ready [`UnicoreServer`] from this configuration, its NJS
    /// split into `shards` shards (at least one). This is the one place
    /// a site's server is built: the federation boots every site through
    /// it, the first time and after a crash.
    ///
    /// # Panics
    /// Panics when a page's Usite disagrees with `self.usite` (a
    /// configuration authoring error).
    pub fn boot(&self, shards: usize) -> UnicoreServer {
        let mut njs = ShardedNjs::new(self.usite.clone(), shards, 1);
        for v in &self.vsites {
            njs.add_vsite(v.page.clone(), v.table.clone());
        }
        let gateway = Gateway::new(self.usite.clone(), self.uudb.clone());
        let mut server = UnicoreServer::new(gateway, njs);
        for dn in &self.peer_servers {
            server.add_peer_server(dn.clone());
        }
        server
    }
}

impl DerCodec for SiteConfig {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.str(&self.usite);
            w.sequence_of(&self.vsites, |w, v| {
                w.sequence(|w| {
                    v.page.write_der(w);
                    v.table.write_der(w);
                })
            });
            self.uudb.write_der(w);
            w.sequence_of(&self.peer_servers, |w, dn| w.str(dn));
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("SiteConfig", |f| {
            Ok(SiteConfig {
                usite: f.next_string()?,
                vsites: f.sequence_of("vsites", |v| {
                    v.sequence("VsiteConfig", |vf| {
                        Ok(VsiteConfig {
                            page: ResourcePage::read_der(vf)?,
                            table: TranslationTable::read_der(vf)?,
                        })
                    })
                })?,
                uudb: Uudb::read_der(f)?,
                peer_servers: f.sequence_of("peer servers", |p| p.next_string())?,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Request, Response};
    use unicore_ajo::{ResourceRequest, UserAttributes, VsiteAddress};
    use unicore_gateway::UserEntry;
    use unicore_resources::{deployment_page, Architecture};

    const DN: &str = "C=DE, O=FZJ, OU=ZAM, CN=cfg-user";

    fn sample_config() -> SiteConfig {
        let mut uudb = Uudb::new();
        uudb.add(DN, UserEntry::new("cfg1", "users"));
        let mut table = TranslationTable::for_architecture(Architecture::CrayT3e);
        table.queue = "prod".into();
        table
            .compiler_options
            .insert("fast".into(), "-O3,aggress".into());
        SiteConfig {
            usite: "FZJ".into(),
            vsites: vec![VsiteConfig {
                page: deployment_page("FZJ", "T3E", Architecture::CrayT3e),
                table,
            }],
            uudb,
            peer_servers: vec!["C=DE, O=RUS, OU=UNICORE, CN=RUS-server".into()],
        }
    }

    #[test]
    fn translation_table_round_trip() {
        let table = sample_config().vsites[0].table.clone();
        let back = TranslationTable::from_der(&table.to_der()).unwrap();
        assert_eq!(back.arch, table.arch);
        assert_eq!(back.queue, "prod");
        assert_eq!(back.compiler_options, table.compiler_options);
        assert_eq!(back.libraries, table.libraries);
        assert_eq!(back.workdir_template, table.workdir_template);
    }

    #[test]
    fn site_config_round_trip() {
        let cfg = sample_config();
        let der = cfg.to_der();
        let back = SiteConfig::from_der(&der).unwrap();
        assert_eq!(back.usite, "FZJ");
        assert_eq!(back.vsites.len(), 1);
        assert_eq!(back.uudb, cfg.uudb);
        assert_eq!(back.peer_servers, cfg.peer_servers);
        // Canonical DER: re-encoding the decoded config is byte-identical.
        assert_eq!(back.to_der(), der);
    }

    #[test]
    fn booted_server_serves_jobs() {
        // Persist, reload, boot — then run a job end to end.
        let der = sample_config().to_der();
        let cfg = SiteConfig::from_der(&der).unwrap();
        let mut server = cfg.boot(1);

        let mut job = unicore_ajo::AbstractJob::new(
            "from-config",
            VsiteAddress::new("FZJ", "T3E"),
            UserAttributes::new(DN, "users"),
        );
        job.nodes.push((
            unicore_ajo::ActionId(1),
            unicore_ajo::GraphNode::Task(unicore_ajo::AbstractTask {
                name: "t".into(),
                resources: ResourceRequest::minimal().with_run_time(600),
                kind: unicore_ajo::TaskKind::Execute(unicore_ajo::ExecuteKind::Script {
                    script: "sleep 10\n".into(),
                }),
            }),
        ));
        let resp = server.handle_request(DN, Request::Consign { ajo: job }, 0);
        let Response::Consigned { job: id } = resp else {
            panic!("{resp:?}")
        };
        let mut now = 0;
        server.step(now);
        while !server.is_done(id) {
            now = server.next_event_time().unwrap_or(now + 1_000_000);
            server.step(now);
        }
        assert!(server.outcome(id).unwrap().status.is_success());
        // The configured custom option survives into incarnation.
        let v = server.njs().vsite("T3E").unwrap();
        assert_eq!(v.table.option("fast"), "-O3,aggress");
    }

    #[test]
    fn booted_server_rejects_unknown_peer() {
        let cfg = sample_config();
        let mut server = cfg.boot(1);
        let resp = server.handle_request(
            "C=DE, O=Nowhere, OU=X, CN=not-a-peer",
            Request::DeliverOutcome {
                parent: unicore_ajo::JobId(1),
                node: unicore_ajo::ActionId(1),
                outcome: unicore_ajo::OutcomeNode::Job(Default::default()),
                files: vec![],
            },
            0,
        );
        assert!(matches!(resp, Response::Error(_)));
    }
}
