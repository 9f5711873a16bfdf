//! The network model: DNS resolution (including non-existent-domain
//! policy), an HTTP responder, and a DNS cache.
//!
//! Network resources are the third deceptive-resource category
//! (Section II-B): "Most sandboxes resolve such NX domains into some fake IP
//! addresses to mimic live communications. SCARECROW employs a similar
//! approach … it will always return the same reachable IP address for all
//! the non-existent domain queries." The WannaCry kill-switch case study
//! (Section V, Case II) is exercised entirely through this module.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// How the resolver treats domains that do not exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NxPolicy {
    /// Real Internet behaviour: the query fails (NXDOMAIN).
    Fail,
    /// Sandbox / Scarecrow behaviour: every NX domain resolves to one
    /// controlled sinkhole address.
    Sinkhole([u8; 4]),
}

/// One entry in the simulated DNS cache (a wear-and-tear artifact:
/// `dnscacheEntries` in Table III).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsCacheEntry {
    /// The cached domain name.
    pub domain: String,
    /// The cached address.
    pub addr: [u8; 4],
}

/// The network state of a machine.
///
/// The preset-built tables (hosts, HTTP responders, reachable addresses,
/// the DNS cache) are `Arc`-shared, so a machine snapshot clones them with
/// refcount bumps; a write copies the table via [`Arc::make_mut`]. At run
/// time only a resolution of a domain not yet cached writes, and it copies
/// the cache alone.
///
/// ```
/// use winsim::{Network, NxPolicy};
/// let mut n = Network::new();
/// assert_eq!(n.resolve("wannacry-killswitch.test"), None); // real Internet
/// n.nx_policy = NxPolicy::Sinkhole([10, 0, 0, 9]);         // sandbox-style
/// assert_eq!(n.resolve("wannacry-killswitch.test"), Some([10, 0, 0, 9]));
/// assert_eq!(n.http_get("wannacry-killswitch.test"), Some(200));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Network {
    /// Registered real domains and their addresses.
    hosts: Arc<BTreeMap<String, [u8; 4]>>,
    /// Hosts that answer HTTP with the given status code. A sinkholed
    /// address always answers `200` (sandbox proxies "mimic live
    /// communications").
    http_hosts: Arc<BTreeMap<String, u16>>,
    /// Non-existent-domain policy.
    pub nx_policy: NxPolicy,
    /// The resolver cache, oldest first.
    dns_cache: Arc<Vec<DnsCacheEntry>>,
    /// Addresses that accepted a TCP connection.
    reachable: Arc<BTreeSet<[u8; 4]>>,
}

impl Default for Network {
    fn default() -> Self {
        Network {
            hosts: Arc::default(),
            http_hosts: Arc::default(),
            nx_policy: NxPolicy::Fail,
            dns_cache: Arc::default(),
            reachable: Arc::default(),
        }
    }
}

fn norm(domain: &str) -> String {
    domain.trim_end_matches('.').to_ascii_lowercase()
}

impl Network {
    /// Creates a network with real-Internet semantics (NX domains fail).
    pub fn new() -> Self {
        Network::default()
    }

    /// Registers a real, resolvable domain.
    pub fn add_host(&mut self, domain: &str, addr: [u8; 4]) {
        Arc::make_mut(&mut self.hosts).insert(norm(domain), addr);
        Arc::make_mut(&mut self.reachable).insert(addr);
    }

    /// Registers an HTTP responder for a domain with a status code.
    pub fn add_http_host(&mut self, domain: &str, status: u16) {
        Arc::make_mut(&mut self.http_hosts).insert(norm(domain), status);
    }

    /// Resolves a domain under the current NX policy, updating the cache on
    /// success.
    pub fn resolve(&mut self, domain: &str) -> Option<[u8; 4]> {
        self.resolve_normalized(norm(domain))
    }

    /// [`Network::resolve`] for an already normalised domain.
    fn resolve_normalized(&mut self, d: String) -> Option<[u8; 4]> {
        let addr = match self.hosts.get(&d) {
            Some(a) => Some(*a),
            None => match self.nx_policy {
                NxPolicy::Fail => None,
                NxPolicy::Sinkhole(a) => Some(a),
            },
        };
        if let Some(a) = addr {
            // a cached domain leaves the cache shared
            if !self.dns_cache.iter().any(|e| e.domain == d) {
                Arc::make_mut(&mut self.dns_cache).push(DnsCacheEntry { domain: d, addr: a });
            }
        }
        addr
    }

    /// Issues an HTTP GET to a domain: resolves it, then asks the responder.
    ///
    /// * real registered HTTP hosts answer with their configured status;
    /// * a sinkholed resolution answers `200` (the sandbox proxy speaks for
    ///   every domain);
    /// * anything else: no response (`None`).
    pub fn http_get(&mut self, domain: &str) -> Option<u16> {
        let d = norm(domain);
        let registered = self.http_hosts.get(&d).copied();
        let addr = self.resolve_normalized(d)?;
        if registered.is_some() {
            return registered;
        }
        match self.nx_policy {
            NxPolicy::Sinkhole(sink) if addr == sink => Some(200),
            _ => None,
        }
    }

    /// Whether a TCP connect to the address would succeed.
    pub fn can_connect(&self, addr: [u8; 4]) -> bool {
        if let NxPolicy::Sinkhole(sink) = self.nx_policy {
            if addr == sink {
                return true;
            }
        }
        self.reachable.contains(&addr)
    }

    /// The DNS cache contents, oldest first.
    pub fn dns_cache(&self) -> &[DnsCacheEntry] {
        &self.dns_cache
    }

    /// Which tables two networks share, in field order: hosts, HTTP
    /// responders, DNS cache, reachable addresses.
    #[cfg(test)]
    pub(crate) fn shared_tables(&self, other: &Network) -> [bool; 4] {
        [
            Arc::ptr_eq(&self.hosts, &other.hosts),
            Arc::ptr_eq(&self.http_hosts, &other.http_hosts),
            Arc::ptr_eq(&self.dns_cache, &other.dns_cache),
            Arc::ptr_eq(&self.reachable, &other.reachable),
        ]
    }

    /// Pre-populates the DNS cache (machine presets model prior activity).
    pub fn seed_dns_cache<I>(&mut self, entries: I)
    where
        I: IntoIterator<Item = (String, [u8; 4])>,
    {
        let cache = Arc::make_mut(&mut self.dns_cache);
        for (domain, addr) in entries {
            cache.push(DnsCacheEntry { domain: norm(&domain), addr });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_hosts_resolve_and_nx_fails_by_default() {
        let mut n = Network::new();
        n.add_host("update.example.com", [93, 184, 216, 34]);
        assert_eq!(n.resolve("UPDATE.EXAMPLE.COM."), Some([93, 184, 216, 34]));
        assert_eq!(n.resolve("iuqerfsodp9ifjaposdfjhgosurijfaewrwergwea.test"), None);
    }

    #[test]
    fn sinkhole_answers_every_nx_domain_with_one_address() {
        let mut n = Network::new();
        n.nx_policy = NxPolicy::Sinkhole([10, 0, 0, 9]);
        assert_eq!(n.resolve("random-dga-1.test"), Some([10, 0, 0, 9]));
        assert_eq!(n.resolve("random-dga-2.test"), Some([10, 0, 0, 9]));
    }

    #[test]
    fn sinkholed_http_returns_200() {
        let mut n = Network::new();
        assert_eq!(n.http_get("killswitch.test"), None);
        n.nx_policy = NxPolicy::Sinkhole([10, 0, 0, 9]);
        assert_eq!(n.http_get("killswitch.test"), Some(200));
    }

    #[test]
    fn registered_http_hosts_answer_with_their_status() {
        let mut n = Network::new();
        n.add_host("cdn.example.com", [1, 2, 3, 4]);
        n.add_http_host("cdn.example.com", 404);
        assert_eq!(n.http_get("CDN.Example.com."), Some(404));
        assert_eq!(
            n.dns_cache(),
            [DnsCacheEntry { domain: "cdn.example.com".into(), addr: [1, 2, 3, 4] }]
        );
    }

    #[test]
    fn only_a_new_resolution_copies_a_shared_table() {
        let mut template = Network::new();
        template.add_host("a.example.com", [1, 1, 1, 1]);
        template.add_http_host("a.example.com", 200);
        template.resolve("a.example.com");
        let mut run = template.clone();
        assert_eq!(run.shared_tables(&template), [true; 4]);
        // cached domains, failed lookups and connects leave every table shared
        assert_eq!(run.http_get("A.example.com."), Some(200));
        assert_eq!(run.resolve("nx.test"), None);
        assert!(run.can_connect([1, 1, 1, 1]));
        assert_eq!(run.shared_tables(&template), [true; 4]);
        run.nx_policy = NxPolicy::Sinkhole([9, 9, 9, 9]);
        assert_eq!(run.resolve("nx.test"), Some([9, 9, 9, 9]));
        assert_eq!(run.shared_tables(&template), [true, true, false, true]);
        assert_eq!(template.dns_cache().len(), 1);
        assert_eq!(run.dns_cache().len(), 2);
    }

    #[test]
    fn cache_records_resolutions_once() {
        let mut n = Network::new();
        n.add_host("a.example.com", [1, 1, 1, 1]);
        n.resolve("a.example.com");
        n.resolve("a.example.com");
        assert_eq!(n.dns_cache().len(), 1);
    }

    #[test]
    fn connectability() {
        let mut n = Network::new();
        n.add_host("a.example.com", [1, 1, 1, 1]);
        assert!(n.can_connect([1, 1, 1, 1]));
        assert!(!n.can_connect([9, 9, 9, 9]));
        n.nx_policy = NxPolicy::Sinkhole([9, 9, 9, 9]);
        assert!(n.can_connect([9, 9, 9, 9]));
    }
}
