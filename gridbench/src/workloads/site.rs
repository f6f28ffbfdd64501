//! The single journalled Usite `live_consign` and `crash_recover` serve
//! from, and the telemetry switch every fixture shares.

use crate::inputs;
use unicore::UnicoreServer;
use unicore_gateway::{Gateway, UserEntry, Uudb};
use unicore_njs::{ShardedNjs, TranslationTable};
use unicore_resources::{deployment_page, Architecture};
use unicore_store::EventStore;
use unicore_telemetry::Telemetry;

pub const USITE: &str = "FZJ";
pub const VSITE: &str = "T3E";
pub const ARCH: Architecture = Architecture::CrayT3e;

/// The program's own collecting telemetry for the traced run, none for
/// the untraced one.
pub fn telemetry(seed: u64, collect: bool) -> Telemetry {
    if collect {
        Telemetry::collecting(seed)
    } else {
        Telemetry::disabled()
    }
}

/// One Usite, one Vsite, one shard, `dn` registered, journalling to
/// `journal`.
pub fn build_server(dn: &str, journal: EventStore, telemetry: &Telemetry) -> UnicoreServer {
    let mut uudb = Uudb::new();
    uudb.add(dn, UserEntry::new("bench", inputs::GROUP));
    let mut njs = ShardedNjs::new(USITE, 1, 1);
    njs.add_vsite(
        deployment_page(USITE, VSITE, ARCH),
        TranslationTable::for_architecture(ARCH),
    );
    njs.attach_stores(vec![journal]);
    let mut server = UnicoreServer::new(Gateway::new(USITE, uudb), njs);
    if telemetry.is_enabled() {
        server.set_telemetry(telemetry.clone());
    }
    server
}
