//! Integration: queue state survives a crash (drop without checkpoint)
//! — the §2.2.b.ii.3 "recoverability, availability, transactional
//! support" claim, end to end through the storage engine.

use std::sync::Arc;

use evdb::queue::{QueueConfig, QueueManager};
use evdb::storage::{Database, DbOptions};
use evdb::types::{DataType, FieldDef, Record, Schema, SimClock, TimestampMs, Value};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "evdb-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn open(dir: &std::path::Path, clock: Arc<SimClock>) -> (Arc<Database>, QueueManager) {
    let db = Database::open(
        dir,
        DbOptions {
            clock,
            ..Default::default()
        },
    )
    .unwrap();
    let q = QueueManager::attach(Arc::clone(&db)).unwrap();
    (db, q)
}

#[test]
fn queue_survives_crash_and_resumes_delivery() {
    let dir = tmpdir("qrec");
    let clock = SimClock::new(TimestampMs(1_000));

    // Session 1: enqueue 10, consume 3 (acked), leave 2 in flight.
    {
        let (_db, q) = open(&dir, clock.clone());
        q.create_queue(
            "work",
            Schema::of(&[("job", DataType::Int)]),
            QueueConfig::default().visibility_timeout(5_000),
        )
        .unwrap();
        q.subscribe("work", "workers").unwrap();
        for i in 0..10 {
            q.enqueue("work", Record::from_iter([Value::Int(i)]), "producer")
                .unwrap();
        }
        let batch = q.dequeue("work", "workers", 3).unwrap();
        for d in &batch {
            q.ack(d).unwrap();
        }
        let _inflight = q.dequeue("work", "workers", 2).unwrap();
        // Crash: drop everything without acking the in-flight pair.
    }

    // Session 2: recover. Acked messages must be gone; ready messages
    // immediately deliverable; in-flight pair redelivered after their
    // visibility window lapses.
    {
        let (_db, q) = open(&dir, clock.clone());
        assert_eq!(q.queue_names(), vec!["work".to_string()]);
        assert_eq!(q.groups("work").unwrap(), vec!["workers".to_string()]);
        assert_eq!(q.depth("work").unwrap(), 7); // 10 - 3 acked

        let ready_now = q.dequeue("work", "workers", 10).unwrap();
        assert_eq!(ready_now.len(), 5, "5 never-delivered jobs ready");
        for d in &ready_now {
            q.ack(d).unwrap(); // finish them before the clock jump
        }

        clock.advance(6_000); // crashed in-flight visibility lapses
        q.reap_timeouts("work").unwrap();
        let redelivered = q.dequeue("work", "workers", 10).unwrap();
        assert_eq!(redelivered.len(), 2, "crashed in-flight pair redelivered");
        assert!(redelivered.iter().all(|d| d.attempt == 2));

        // Finish everything; storage is reclaimed.
        for d in &redelivered {
            q.ack(d).unwrap();
        }
        assert_eq!(q.depth("work").unwrap(), 0);
    }

    // Session 3: ids keep rising after recovery (no reuse).
    {
        let (_db, q) = open(&dir, clock);
        let id = q
            .enqueue("work", Record::from_iter([Value::Int(99)]), "producer")
            .unwrap();
        assert!(id > 10, "recovered id allocator must not reuse ids: {id}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dead_letters_survive_recovery() {
    let dir = tmpdir("dlq");
    let clock = SimClock::new(TimestampMs(0));
    {
        let (_db, q) = open(&dir, clock.clone());
        q.create_queue(
            "work",
            Schema::of(&[("job", DataType::Int)]),
            QueueConfig::default().max_attempts(1).visibility_timeout(10),
        )
        .unwrap();
        q.subscribe("work", "g").unwrap();
        q.enqueue("work", Record::from_iter([Value::Int(1)]), "p").unwrap();
        let d = q.dequeue("work", "g", 1).unwrap().remove(0);
        q.nack(&d, "poison message").unwrap();
        assert_eq!(q.dead_letter_count("work").unwrap(), 1);
    }
    {
        let (_db, q) = open(&dir, clock);
        assert_eq!(q.dead_letter_count("work").unwrap(), 1);
        assert_eq!(q.depth("work").unwrap(), 0);
        assert!(q.dequeue("work", "g", 1).unwrap().is_empty());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_typed_state_column_is_a_typed_error_on_reopen() {
    let dir = tmpdir("qcorrupt");
    let clock = SimClock::new(TimestampMs(0));
    {
        let (db, q) = open(&dir, clock.clone());
        q.create_queue(
            "work",
            Schema::of(&[("job", DataType::Int)]),
            QueueConfig::default(),
        )
        .unwrap();
        q.subscribe("work", "g").unwrap();
        q.enqueue("work", Record::from_iter([Value::Int(1)]), "p").unwrap();
        // Swap the state table for one whose `state` column is text and
        // holds the one delivery row, journaled like any other DDL.
        let states = db.table("__q_work_s").unwrap();
        let mut fields = states.schema().fields().to_vec();
        fields[3] = FieldDef::required("state", DataType::Str);
        let mut row = states.scan().remove(0).into_values();
        row[3] = Value::from("ready");
        db.drop_table("__q_work_s").unwrap();
        db.create_table("__q_work_s", Schema::new(fields).unwrap(), "sid")
            .unwrap();
        db.insert("__q_work_s", Record::new(row)).unwrap();
    }
    let db = Database::open(
        &dir,
        DbOptions {
            clock,
            ..Default::default()
        },
    )
    .unwrap();
    let err = QueueManager::attach(db)
        .err()
        .expect("a wrong-typed state row must not attach");
    assert_eq!(err.kind(), "corruption");
    let msg = err.to_string();
    assert!(msg.contains("'__q_work_s'") && msg.contains("'state'"), "{msg}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `attach` does not decode message rows, so a wrong-typed one surfaces
/// on the first read past recovery: `dequeue` must return the typed
/// error, not panic.
#[test]
fn wrong_typed_message_column_is_a_typed_error_on_dequeue() {
    let dir = tmpdir("qcorrupt-msg");
    let clock = SimClock::new(TimestampMs(0));
    {
        let (db, q) = open(&dir, clock.clone());
        q.create_queue(
            "work",
            Schema::of(&[("job", DataType::Int)]),
            QueueConfig::default(),
        )
        .unwrap();
        q.subscribe("work", "g").unwrap();
        q.enqueue("work", Record::from_iter([Value::Int(1)]), "p").unwrap();
        // Swap the message table for one whose source column (`src`) is
        // an integer and holds the one message, journaled like any DDL.
        let messages = db.table("__q_work_m").unwrap();
        let mut fields = messages.schema().fields().to_vec();
        assert_eq!(fields[4].name, "src");
        fields[4] = FieldDef::required("src", DataType::Int);
        let mut row = messages.scan().remove(0).into_values();
        row[4] = Value::Int(7);
        db.drop_table("__q_work_m").unwrap();
        db.create_table("__q_work_m", Schema::new(fields).unwrap(), "id")
            .unwrap();
        db.insert("__q_work_m", Record::new(row)).unwrap();
    }
    let (_db, q) = open(&dir, clock);
    let err = q
        .dequeue("work", "g", 1)
        .expect_err("a wrong-typed message row must not be delivered");
    assert_eq!(err.kind(), "corruption");
    let msg = err.to_string();
    assert!(msg.contains("'__q_work_m'") && msg.contains("'src'"), "{msg}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_compacts_queue_journal() {
    let dir = tmpdir("qckpt");
    let clock = SimClock::new(TimestampMs(0));
    {
        let (db, q) = open(&dir, clock.clone());
        q.create_queue(
            "work",
            Schema::of(&[("job", DataType::Int)]),
            QueueConfig::default(),
        )
        .unwrap();
        q.subscribe("work", "g").unwrap();
        for i in 0..50 {
            q.enqueue("work", Record::from_iter([Value::Int(i)]), "p").unwrap();
        }
        let before = db.wal_len_bytes();
        db.checkpoint().unwrap();
        assert!(db.wal_len_bytes() < before);
    }
    {
        let (_db, q) = open(&dir, clock);
        assert_eq!(q.depth("work").unwrap(), 50);
        assert_eq!(q.dequeue("work", "g", 100).unwrap().len(), 50);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
