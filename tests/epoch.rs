//! Epoch-snapshot concurrency (DESIGN.md §18): online updates under
//! live readers. The headline property is the race differential —
//! readers racing a committing writer always see results byte-identical
//! to a serial run against either the pre-commit or the post-commit
//! snapshot, never a torn mix — plus the fault-injection matrix: an
//! injected alloc failure, cancellation or index-repair abort anywhere
//! inside a batch leaves the published epoch untouched and the batch's
//! governor with zero transient bytes.

use std::sync::Arc;

use natix::service::render_output;
use natix::{
    BatchBase, Document, Engine, EngineConfig, FailPoint, NatixError, NodeId, NodeKind,
    QueryOutput, RepairFailPoint, ResourceLimits, TranslateOptions, UpdateError, XmlStore,
};
use telemetry::Telemetry;
use xmlstore::{to_xml, ArenaStore};

fn engine_with(xml: &str) -> Arc<Engine> {
    let engine = Engine::new();
    engine.register_document("main", Document::parse(xml).unwrap());
    engine
}

#[test]
fn registry_epochs_and_pins() {
    let engine = engine_with("<r><item>1</item></r>");
    assert_eq!(engine.document_epoch("main"), Some(1));

    // A reader pins epoch 1.
    let pin = engine.pin("main").unwrap();
    assert_eq!(pin.epoch(), 1);

    // A writer appends an item and commits.
    let mut batch = engine.write_batch("main").unwrap();
    let r = batch.select_one("/r").unwrap();
    let item = batch.append_element(r, "item").unwrap();
    batch.append_text(item, "2").unwrap();
    let receipt = batch.commit().unwrap();
    assert_eq!(receipt.epoch, 2);
    assert_eq!(receipt.ops, 2);
    assert_eq!(engine.document_epoch("main"), Some(2));

    // The pinned reader still sees the old snapshot; a fresh pin sees
    // the new epoch.
    let session = engine.session();
    assert_eq!(
        session.evaluate(pin.doc().store(), "count(/r/item)").unwrap(),
        QueryOutput::Num(1.0)
    );
    let fresh = engine.pin("main").unwrap();
    assert_eq!(fresh.epoch(), 2);
    assert_eq!(
        session.evaluate(fresh.doc().store(), "count(/r/item)").unwrap(),
        QueryOutput::Num(2.0)
    );
}

#[test]
fn single_writer_per_document() {
    let engine = engine_with("<r/>");
    let first = engine.write_batch("main").unwrap();
    match engine.write_batch("main") {
        Err(NatixError::Update(UpdateError::WriterConflict(doc))) => assert_eq!(doc, "main"),
        other => panic!("expected writer conflict, got {other:?}"),
    }
    drop(first);
    // The slot frees on drop (abort path).
    engine.write_batch("main").unwrap();
    assert_eq!(engine.document_epoch("main"), Some(1), "aborted batches publish nothing");
}

#[test]
fn disk_documents_are_immutable_snapshots() {
    use xmlstore::tmp::TempPath;
    let t = TempPath::new(".natix");
    let arena = Document::parse("<r><a/></r>").unwrap();
    let disk = arena.persist(t.path(), 8).unwrap();
    let engine = Engine::new();
    engine.register_document("frozen", disk);
    match engine.write_batch("frozen") {
        Err(NatixError::Update(UpdateError::ImmutableSnapshot)) => {}
        other => panic!("expected immutable-snapshot, got {other:?}"),
    }
    // The refused batch must not leak the writer slot.
    match engine.write_batch("frozen") {
        Err(NatixError::Update(UpdateError::ImmutableSnapshot)) => {}
        other => panic!("writer slot leaked: {other:?}"),
    }
}

/// The race differential: N reader threads race a writer that commits
/// one append per epoch. Every reader pins a snapshot, runs several
/// queries under that single pin, and checks the rendered protocol
/// lines against the closed-form serial answer for the pinned epoch —
/// epoch k has exactly k-1 items with texts 1..k-1, so a reader that
/// ever observed a half-applied batch (or two different epochs inside
/// one pin) would produce a line no serial run could.
#[test]
fn readers_race_writer_without_tearing() {
    let engine = engine_with("<r></r>");
    const COMMITS: u64 = 40;
    const READERS: usize = 4;

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let engine = engine.clone();
            std::thread::spawn(move || {
                let session = engine.session();
                let mut distinct_epochs = std::collections::BTreeSet::new();
                for _ in 0..150 {
                    let pin = engine.pin("main").unwrap();
                    let store = pin.doc().store();
                    let items = pin.epoch() - 1;
                    // Three queries under one pin: all must agree with
                    // the pinned epoch's serial answer, byte for byte.
                    let count = render_output(&session.evaluate(store, "count(/r/item)").unwrap());
                    assert_eq!(count, format!("OK num {items}"), "epoch {}", pin.epoch());
                    let sum = render_output(&session.evaluate(store, "sum(/r/item)").unwrap());
                    assert_eq!(
                        sum,
                        format!("OK num {}", items * (items + 1) / 2),
                        "epoch {}",
                        pin.epoch()
                    );
                    let last =
                        render_output(&session.evaluate(store, "string(/r/item[last()])").unwrap());
                    let expect_last = if items == 0 {
                        "OK str ".to_owned()
                    } else {
                        format!("OK str {items}")
                    };
                    assert_eq!(last, expect_last, "epoch {}", pin.epoch());
                    distinct_epochs.insert(pin.epoch());
                }
                distinct_epochs.len()
            })
        })
        .collect();

    let writer = {
        let engine = engine.clone();
        std::thread::spawn(move || {
            for k in 1..=COMMITS {
                let mut batch = engine.write_batch("main").unwrap();
                let r = batch.select_one("/r").unwrap();
                let item = batch.append_element(r, "item").unwrap();
                batch.append_text(item, &k.to_string()).unwrap();
                let receipt = batch.commit().unwrap();
                assert_eq!(receipt.epoch, k + 1);
            }
        })
    };
    for r in readers {
        assert!(r.join().unwrap() > 0, "every reader made progress");
    }
    writer.join().unwrap();
    assert_eq!(engine.document_epoch("main"), Some(COMMITS + 1));
}

/// The fault-injection matrix: whatever aborts a batch — an injected
/// allocation failure, an injected cancellation, or an injected
/// structural-index repair abort — the published snapshot stays
/// byte-identical, the epoch does not move, and the batch's governor
/// releases every transient byte.
#[test]
fn injected_faults_discard_the_batch_whole() {
    let faults: &[(FailPoint, RepairFailPoint, &str)] = &[
        (
            FailPoint { fail_at_alloc: Some(2), cancel_at_tick: None },
            RepairFailPoint::none(),
            "alloc",
        ),
        (
            FailPoint { fail_at_alloc: None, cancel_at_tick: Some(3) },
            RepairFailPoint::none(),
            "cancel",
        ),
        (FailPoint::none(), RepairFailPoint { fail_repair_at: Some(2) }, "repair"),
    ];
    for (fp, rfp, label) in faults {
        let engine = engine_with("<r><a>1</a><b>2</b></r>");
        let before_xml = to_xml(engine.document("main").unwrap().store());
        let mut batch =
            engine.write_batch_with("main", ResourceLimits::unlimited(), *fp, *rfp).unwrap();
        let gov = batch.governor();

        // Keep applying ops until the injected fault fires.
        let mut failed = None;
        for i in 0..10u32 {
            let r = match batch.select_one("/r") {
                Ok(r) => r,
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            };
            if let Err(e) = batch.append_element(r, &format!("x{i}")) {
                failed = Some(e);
                break;
            }
        }
        let failed = failed.unwrap_or_else(|| panic!("{label}: fault never fired"));
        match (*label, &failed) {
            ("alloc", NatixError::Resource(natix::QueryError::MemoryExceeded { .. })) => {}
            ("cancel", NatixError::Resource(natix::QueryError::Cancelled)) => {}
            ("repair", NatixError::Update(UpdateError::RepairAborted)) => {}
            other => panic!("{label}: unexpected failure {other:?}"),
        }
        assert!(batch.is_poisoned(), "{label}: fault poisons the batch");

        // Every further op (and commit) is refused.
        match batch.select_one("/r") {
            Err(NatixError::Update(UpdateError::BatchPoisoned)) => {}
            other => panic!("{label}: poisoned batch accepted an op: {other:?}"),
        }
        match batch.commit() {
            Err(NatixError::Update(UpdateError::BatchPoisoned)) => {}
            other => panic!("{label}: poisoned batch committed: {other:?}"),
        }

        // Atomicity: the published snapshot is byte-identical, the epoch
        // did not move, and no transient governor state leaked.
        assert_eq!(engine.document_epoch("main"), Some(1), "{label}");
        assert_eq!(to_xml(engine.document("main").unwrap().store()), before_xml, "{label}");
        assert_eq!(gov.mem_used(), 0, "{label}: governor leak");

        // The writer slot is free again and a clean batch succeeds.
        let mut retry = engine.write_batch("main").unwrap();
        let retry_gov = retry.governor();
        let r = retry.select_one("/r").unwrap();
        retry.append_element(r, "c").unwrap();
        let receipt = retry.commit().unwrap();
        assert_eq!(receipt.epoch, 2, "{label}: retry after fault publishes");
        assert_eq!(retry_gov.mem_used(), 0, "{label}");
    }
}

#[test]
fn commit_releases_governor_and_counts_repairs() {
    let engine = engine_with("<r><a/><b/></r>");
    let mut batch = engine.write_batch("main").unwrap();
    let gov = batch.governor();
    let r = batch.select_one("/r").unwrap();
    batch.append_element(r, "c").unwrap();
    let a = batch.select_one("/r/a").unwrap();
    batch.remove_subtree(a).unwrap();
    assert!(gov.mem_used() > 0, "open batch holds its op charges");
    let receipt = batch.commit().unwrap();
    assert_eq!(gov.mem_used(), 0, "commit releases the whole charge");
    assert_eq!(receipt.repairs.incremental, 2);
    assert_eq!(receipt.repairs.full_renumbers, 0);
}

#[test]
fn stale_plans_evicted_on_epoch_publish() {
    let engine = engine_with("<r><a>1</a><a>2</a><b>3</b></r>");
    let session = engine.session().with_options(TranslateOptions::cost_based());

    // Compile a cost-based plan: keyed under the current statistics
    // fingerprint.
    let doc = engine.document("main").unwrap();
    assert_eq!(session.evaluate(doc.store(), "count(//a)").unwrap(), QueryOutput::Num(2.0));
    let stats = engine.cache_stats();
    assert_eq!((stats.entries, stats.stale_evictions), (1, 0));

    // A structural commit changes the statistics fingerprint: the old
    // entry is eagerly evicted at publish, not left to LRU pressure.
    let mut batch = engine.write_batch("main").unwrap();
    let r = batch.select_one("/r").unwrap();
    batch.append_element(r, "a").unwrap();
    let receipt = batch.commit().unwrap();
    assert_eq!(receipt.stale_plans_evicted, 1);
    let stats = engine.cache_stats();
    assert_eq!((stats.entries, stats.stale_evictions), (0, 1));

    // The next evaluation recompiles under the new fingerprint and
    // sees the new document.
    let doc = engine.document("main").unwrap();
    assert_eq!(session.evaluate(doc.store(), "count(//a)").unwrap(), QueryOutput::Num(3.0));
    assert_eq!(engine.cache_stats().entries, 1);
}

#[test]
fn content_only_commits_keep_plans() {
    // A content-only update leaves the structural statistics (and their
    // fingerprint) untouched, so cached plans stay valid and resident.
    let engine = engine_with("<r><a>1</a></r>");
    let session = engine.session().with_options(TranslateOptions::cost_based());
    let doc = engine.document("main").unwrap();
    session.evaluate(doc.store(), "count(//a)").unwrap();
    assert_eq!(engine.cache_stats().entries, 1);

    let mut batch = engine.write_batch("main").unwrap();
    let text = batch.select_one("/r/a/text()").unwrap();
    batch.set_content(text, "updated").unwrap();
    let receipt = batch.commit().unwrap();
    assert_eq!(receipt.stale_plans_evicted, 0);
    let stats = engine.cache_stats();
    assert_eq!((stats.entries, stats.stale_evictions), (1, 0));
}

#[test]
fn epoch_metrics_flow_to_telemetry() {
    let telemetry = Telemetry::new().shared();
    let engine = Engine::with_config(EngineConfig::default(), Some(telemetry.clone()));
    engine.register_document("main", Document::parse("<r><a/></r>").unwrap());
    assert_eq!(telemetry.registry.value("natix_store_epoch"), Some(1));
    assert_eq!(telemetry.registry.value("natix_epoch_readers"), Some(0));

    {
        let _pin1 = engine.pin("main").unwrap();
        let _pin2 = engine.pin("main").unwrap();
        assert_eq!(telemetry.registry.value("natix_epoch_readers"), Some(2));
    }
    assert_eq!(telemetry.registry.value("natix_epoch_readers"), Some(0));

    let mut batch = engine.write_batch("main").unwrap();
    let r = batch.select_one("/r").unwrap();
    batch.append_element(r, "b").unwrap();
    batch.append_element(r, "c").unwrap();
    batch.commit().unwrap();
    assert_eq!(telemetry.registry.value("natix_store_epoch"), Some(2));
    assert_eq!(telemetry.registry.value("natix_index_repairs_total"), Some(2));
    assert_eq!(
        telemetry.registry.value("natix_plan_cache_stale_evictions_total"),
        Some(0),
        "no cost-based plans were cached"
    );
}

#[test]
fn update_protocol_roundtrip() {
    use natix::{QueryService, ServiceConfig};
    let engine = engine_with("<r><a>1</a><b>2</b></r>");
    let service = QueryService::new(engine, ServiceConfig { workers: 2, queue_depth: 8 });
    let mut c = service.client(None);

    assert_eq!(c.handle("epoch").text(), "OK epoch 1");
    assert_eq!(c.handle("count(/r/*)").text(), "OK num 2");

    // Batched updates: invisible to queries until commit.
    assert_eq!(c.handle("update append-element /r c").text(), "OK update append-element ops=1");
    assert_eq!(c.handle("update set-attr /r/a x 9").text(), "OK update set-attr ops=2");
    assert_eq!(c.handle("count(/r/*)").text(), "OK num 2", "uncommitted batch is invisible");
    let commit = c.handle("commit").text().to_owned();
    assert!(commit.starts_with("OK committed epoch=2 ops=2"), "{commit}");
    assert_eq!(c.handle("count(/r/*)").text(), "OK num 3");
    assert_eq!(c.handle("string(/r/a/@x)").text(), "OK str 9");
    assert_eq!(c.handle("epoch").text(), "OK epoch 2");

    // Rollback discards.
    assert_eq!(c.handle("update remove /r/b").text(), "OK update remove ops=1");
    assert_eq!(c.handle("rollback").text(), "OK rolled back ops=1");
    assert_eq!(c.handle("count(/r/b)").text(), "OK num 1");

    // Typed error classes on the wire: `ERR update <class>: …`.
    let r = c.handle("update move /r/a /r/a").text().to_owned();
    assert!(r.starts_with("ERR update cycle:"), "{r}");
    // The failed op poisoned the batch.
    let r = c.handle("update remove /r/b").text().to_owned();
    assert!(r.starts_with("ERR update batch-poisoned:"), "{r}");
    assert_eq!(c.handle("rollback").text(), "OK rolled back ops=0");
    // A missed target is a typed error but does not poison the batch.
    let r = c.handle("update remove /r/nosuch").text().to_owned();
    assert!(r.starts_with("ERR update target-not-found:"), "{r}");
    assert_eq!(c.handle("update remove /r/b").text(), "OK update remove ops=1");
    assert_eq!(c.handle("rollback").text(), "OK rolled back ops=1");
    assert_eq!(c.handle("commit").text(), "ERR usage no open write batch");
    assert_eq!(c.handle("rollback").text(), "ERR usage no open write batch");
}

#[test]
fn commit_refuses_a_document_re_registered_while_the_batch_ran() {
    let engine = engine_with("<r><a/></r>");
    let mut batch = engine.write_batch("main").unwrap();
    let gov = batch.governor();
    let r = batch.select_one("/r").unwrap();
    batch.append_element(r, "b").unwrap();
    engine.register_document("main", Document::parse("<fresh/>").unwrap());
    match batch.commit() {
        Err(NatixError::Update(e @ UpdateError::DocumentReplaced(_))) => {
            assert_eq!(e.class(), "document-replaced");
            assert_eq!(e, UpdateError::DocumentReplaced("main".into()));
        }
        other => panic!("expected document-replaced, got {other:?}"),
    }
    // The re-registration survives, the charge and the writer slot are
    // released, and the next batch publishes onto the new document.
    assert_eq!(to_xml(engine.document("main").unwrap().store()), "<fresh/>");
    assert_eq!(engine.document_epoch("main"), Some(2));
    assert_eq!(gov.mem_used(), 0);
    let mut retry = engine.write_batch("main").unwrap();
    let fresh = retry.select_one("/fresh").unwrap();
    retry.append_element(fresh, "c").unwrap();
    let receipt = retry.commit().unwrap();
    assert_eq!(receipt.epoch, 3);
    assert_eq!(receipt.base, BatchBase::Cloned, "re-registration retains nothing");
    assert_eq!(to_xml(engine.document("main").unwrap().store()), "<fresh><c/></fresh>");
}

#[test]
fn repair_failpoint_fires_in_a_batch_after_earlier_repairs() {
    let engine = engine_with("<r><a>1</a><b>2</b></r>");
    let mut first = engine.write_batch("main").unwrap();
    let r = first.select_one("/r").unwrap();
    first.append_element(r, "c").unwrap();
    first.append_element(r, "d").unwrap();
    first.commit().unwrap();
    let before_xml = to_xml(engine.document("main").unwrap().store());

    let mut batch = engine
        .write_batch_with(
            "main",
            ResourceLimits::unlimited(),
            FailPoint::none(),
            RepairFailPoint { fail_repair_at: Some(2) },
        )
        .unwrap();
    let r = batch.select_one("/r").unwrap();
    batch.append_element(r, "x").unwrap();
    match batch.append_element(r, "y") {
        Err(NatixError::Update(UpdateError::RepairAborted)) => {}
        other => panic!("the second repair must abort, got {other:?}"),
    }
    assert!(matches!(batch.commit(), Err(NatixError::Update(UpdateError::BatchPoisoned))));
    assert_eq!(engine.document_epoch("main"), Some(2));
    assert_eq!(to_xml(engine.document("main").unwrap().store()), before_xml);
}

/// Deterministic splitmix64 (seeded; no external PRNG dependency).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn arena(doc: &Document) -> &ArenaStore {
    match doc {
        Document::Arena(a) => a,
        Document::Disk(_) => panic!("write batches publish arena snapshots"),
    }
}

/// The working store a batch opened on is the published snapshot: same
/// serialization, index (statistics included), order keys, repair
/// counters and id resolution.
fn assert_same_store(working: &ArenaStore, published: &ArenaStore, ids: &[String], ctx: &str) {
    assert_eq!(to_xml(working), to_xml(published), "{ctx}");
    let (w, p) = (working.structural_index().unwrap(), published.structural_index().unwrap());
    assert_eq!(w, p, "{ctx}: structural index");
    assert_eq!(w.stats(), p.stats(), "{ctx}: statistics");
    for r in 0..w.len() as u32 {
        let n = w.node_at(r);
        assert_eq!(working.order(n), published.order(n), "{ctx}: order key at rank {r}");
    }
    assert_eq!(working.repair_stats(), published.repair_stats(), "{ctx}: repair counters");
    for v in ids {
        assert_eq!(working.element_by_id(v), published.element_by_id(v), "{ctx}: id {v}");
    }
}

fn random_ranked(store: &ArenaStore, rng: &mut Rng) -> NodeId {
    let idx = store.structural_index().unwrap();
    idx.node_at(rng.below(idx.len() as u64) as u32)
}

fn random_element(store: &ArenaStore, rng: &mut Rng) -> Option<NodeId> {
    (0..20)
        .map(|_| random_ranked(store, rng))
        .find(|&n| store.kind(n) == NodeKind::Element && store.parent(n) != Some(store.root()))
}

fn seed_xml() -> String {
    let mut xml = String::from("<r>");
    for i in 0..12 {
        xml += &format!(r#"<a id="k{}"><b id="k{}">t{i}</b><c/></a>"#, i % 5, i % 7);
    }
    xml + "</r>"
}

/// The replay differential: a seeded run of batches over the whole op
/// set — duplicate `id` values and subtree moves included — with
/// aborted, poisoned and refused batches and re-registrations mixed in,
/// while held reader pins keep random epochs alive. After every open the
/// working store, however it was obtained, equals the published snapshot.
#[test]
fn replayed_working_stores_equal_the_published_snapshot() {
    let engine = engine_with(&seed_xml());
    let ids: Vec<String> = (0..9).map(|i| format!("k{i}")).collect();
    let mut rng = Rng(0x2026_1017_0029);
    let mut pins = Vec::new();
    let (mut reclaimed, mut deepest, mut cloned, mut refused) = (0, 0, 0, 0);
    for step in 0..400 {
        // Readers pin the current epoch and let go of old ones at random.
        if rng.below(2) == 0 && pins.len() < 3 {
            pins.push(engine.pin("main").unwrap());
        }
        if rng.below(3) == 0 && !pins.is_empty() {
            pins.swap_remove(rng.below(pins.len() as u64) as usize);
        }
        if rng.below(60) == 0 {
            let current = engine.document("main").unwrap();
            engine.register_document("main", Document::parse(&to_xml(current.store())).unwrap());
        }
        let mut batch = engine.write_batch("main").unwrap();
        let published = engine.document("main").unwrap();
        assert_same_store(batch.store(), arena(&published), &ids, &format!("step {step}"));
        drop(published);

        for _ in 0..=rng.below(6) {
            let store = batch.store();
            let Some(target) = random_element(store, &mut rng) else {
                continue;
            };
            let dest = random_element(store, &mut rng);
            let id = &ids[rng.below(ids.len() as u64) as usize];
            let big = store.structural_index().unwrap().len() > 60;
            let _ = match rng.below(9) {
                0 => batch.append_element(target, "n").map(drop),
                1 => batch.append_text(target, "txt").map(drop),
                2 => batch.insert_element_before(target, "m").map(drop),
                3 => batch.set_attribute(target, "id", id).map(drop),
                4 => match store.first_child(target).filter(|&c| store.kind(c) == NodeKind::Text) {
                    Some(text) => batch.set_content(text, id),
                    None => batch.set_attribute(target, "x", id).map(drop),
                },
                5 if big => batch.remove_subtree(target),
                6 => batch.remove_attribute(target, "id").map(drop),
                7 => match dest {
                    Some(d) if !store.is_ancestor(target, d) && d != target => {
                        batch.move_subtree(target, d)
                    }
                    _ => Ok(()),
                },
                // A move under itself: a typed error that poisons the batch.
                8 if rng.below(4) == 0 => batch.move_subtree(target, target),
                _ => Ok(()),
            };
        }
        let poisoned = batch.is_poisoned();
        match rng.below(12) {
            0 => batch.abort(),
            1 => {
                let current = engine.document("main").unwrap();
                engine
                    .register_document("main", Document::parse(&to_xml(current.store())).unwrap());
                assert!(batch.commit().is_err(), "step {step}: a replaced document refuses");
                refused += 1;
            }
            _ if poisoned => {
                assert!(matches!(
                    batch.commit(),
                    Err(NatixError::Update(UpdateError::BatchPoisoned))
                ));
            }
            _ => match batch.commit().unwrap().base {
                BatchBase::Cloned => cloned += 1,
                BatchBase::Reclaimed { replayed } => {
                    reclaimed += 1;
                    deepest = deepest.max(replayed);
                }
            },
        }
    }
    assert!(reclaimed > 100 && cloned > 20 && refused > 10, "{reclaimed} {cloned} {refused}");
    assert!(deepest >= 4, "the deepest replay covered only {deepest} batches");
}

/// One reader pinning every published epoch in turn never forces a
/// clone after the first batch: the snapshot it let go is free again.
/// A reader one epoch behind costs one more clone, after which two
/// retained snapshots always leave one free.
#[test]
fn a_reader_pinning_every_epoch_in_turn_never_forces_a_clone() {
    let telemetry = Telemetry::new().shared();
    let engine = Engine::with_config(EngineConfig::default(), Some(telemetry.clone()));
    engine.register_document("main", Document::parse(&seed_xml()).unwrap());
    let batch_on = |engine: &Arc<Engine>, k: usize| {
        let mut batch = engine.write_batch("main").unwrap();
        let r = batch.select_one("/r").unwrap();
        let a = batch.append_element(r, "a").unwrap();
        batch.set_attribute(a, "id", &format!("new{k}")).unwrap();
        let gone = batch.select_one("/r/a[2]").unwrap();
        batch.remove_subtree(gone).unwrap();
        batch.commit().unwrap()
    };
    let mut pin = engine.pin("main").unwrap();
    for k in 0..12 {
        let receipt = batch_on(&engine, k);
        match (k, receipt.base) {
            (0, BatchBase::Cloned) | (1.., BatchBase::Reclaimed { replayed: 1 }) => {}
            other => panic!("batch {k}: {other:?}"),
        }
        pin = engine.pin("main").unwrap();
    }
    assert_eq!(telemetry.registry.value("natix_write_batch_clones_total"), Some(1));

    // The reader now lags: it still holds the superseded epoch when the
    // next batch opens.
    for k in 12..24 {
        let lagging = engine.pin("main").unwrap();
        batch_on(&engine, k);
        drop(std::mem::replace(&mut pin, lagging));
    }
    drop(pin);
    assert_eq!(telemetry.registry.value("natix_write_batch_clones_total"), Some(2));
}
