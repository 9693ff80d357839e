//! A realistic miniature C program — a linked list, an intrusive hash
//! table, a callback registry, and an arena allocator — pushed through the
//! whole pipeline, with precise assertions about the points-to facts and
//! dependence results.

use cla::prelude::*;
use cla_depend::{DependOptions, DependenceAnalysis};

const LIST_H: &str = r#"
#ifndef LIST_H
#define LIST_H
struct list_node {
    struct list_node *next;
    void *payload;
};
struct list {
    struct list_node *head;
    int length;
};
void list_push(struct list *l, void *payload);
void *list_top(struct list *l);
#endif
"#;

const LIST_C: &str = r#"
#include "list.h"
void *arena_alloc(unsigned long n);

void list_push(struct list *l, void *payload) {
    struct list_node *n = arena_alloc(sizeof(struct list_node));
    n->next = l->head;
    n->payload = payload;
    l->head = n;
    l->length = l->length + 1;
}

void *list_top(struct list *l) {
    if (l->head)
        return l->head->payload;
    return 0;
}
"#;

const HASH_H: &str = r#"
#ifndef HASH_H
#define HASH_H
struct hash_entry {
    struct hash_entry *chain;
    const char *key;
    int *value;
};
#define NBUCKETS 64
struct hash_table {
    struct hash_entry *buckets[NBUCKETS];
    unsigned count;
};
void hash_put(struct hash_table *t, const char *key, int *value);
int *hash_get(struct hash_table *t, const char *key);
#endif
"#;

const HASH_C: &str = r#"
#include "hash.h"
void *arena_alloc(unsigned long n);

static unsigned hash_string(const char *s) {
    unsigned h = 5381;
    while (*s) {
        h = (h << 5) + h + (unsigned)*s;
        s++;
    }
    return h;
}

void hash_put(struct hash_table *t, const char *key, int *value) {
    unsigned b = hash_string(key) % NBUCKETS;
    struct hash_entry *e = arena_alloc(sizeof(struct hash_entry));
    e->chain = t->buckets[b];
    e->key = key;
    e->value = value;
    t->buckets[b] = e;
    t->count++;
}

int *hash_get(struct hash_table *t, const char *key) {
    unsigned b = hash_string(key) % NBUCKETS;
    struct hash_entry *e;
    for (e = t->buckets[b]; e; e = e->chain) {
        if (e->key == key)
            return e->value;
    }
    return 0;
}
"#;

const ARENA_C: &str = r#"
static char arena[1 << 16];
static unsigned long arena_used;

void *arena_alloc(unsigned long n) {
    void *p = &arena[arena_used];
    arena_used += n;
    return p;
}
"#;

const MAIN_C: &str = r#"
#include "list.h"
#include "hash.h"

typedef void (*event_handler)(int *);

static event_handler handlers[8];
static int handler_count;

void register_handler(event_handler h) {
    handlers[handler_count++] = h;
}

void fire_all(int *arg) {
    int i;
    for (i = 0; i < handler_count; i++)
        handlers[i](arg);
}

int observed_value;
int *last_seen;
void observe(int *v) { last_seen = v; observed_value = *v; }

struct list work_queue;
struct hash_table config;
int threshold;
short raw_reading;
short scaled_reading;

int main(void) {
    hash_put(&config, "threshold", &threshold);
    list_push(&work_queue, hash_get(&config, "threshold"));
    register_handler(observe);
    fire_all(list_top(&work_queue));
    scaled_reading = raw_reading + 1;
    return 0;
}
"#;

fn build() -> cla::core::pipeline::Analysis {
    let mut fs = MemoryFs::new();
    fs.add("list.h", LIST_H);
    fs.add("hash.h", HASH_H);
    fs.add("list.c", LIST_C);
    fs.add("hash.c", HASH_C);
    fs.add("arena.c", ARENA_C);
    fs.add("main.c", MAIN_C);
    analyze(
        &fs,
        &["list.c", "hash.c", "arena.c", "main.c"],
        &PipelineOptions {
            parallel_compile: true,
            ..Default::default()
        },
    )
    .expect("pipeline")
}

fn obj(a: &cla::core::pipeline::Analysis, name: &str) -> ObjId {
    *a.database
        .targets(name)
        .first()
        .unwrap_or_else(|| panic!("no object named {name}"))
}

#[test]
fn pointer_facts() {
    let a = build();
    let threshold = obj(&a, "threshold");

    // &threshold went into the hash table's value field...
    let value_field = obj(&a, "hash_entry.value");
    assert!(a.points_to.may_point_to(value_field, threshold));

    // ... came back out of hash_get, through the list payload ...
    let payload = obj(&a, "list_node.payload");
    assert!(a.points_to.may_point_to(payload, threshold));

    // ... and reached the observer through the function-pointer table.
    let last_seen = obj(&a, "last_seen");
    assert!(
        a.points_to.may_point_to(last_seen, threshold),
        "threshold must flow through hash -> list -> indirect call"
    );

    // The handler table points at observe.
    let handlers = obj(&a, "handlers");
    let observe = obj(&a, "observe");
    assert!(a.points_to.may_point_to(handlers, observe));

    // List nodes live in the arena allocation site.
    let head = obj(&a, "list.head");
    let site: Vec<String> = a
        .points_to
        .points_to(head)
        .iter()
        .map(|&t| a.database.object(t).name.clone())
        .collect();
    assert!(
        site.iter().any(|s| s.starts_with("heap@") || s == "arena"),
        "list head points at the arena allocation: {site:?}"
    );
}

#[test]
fn dependence_facts() {
    let a = build();
    let dep = DependenceAnalysis::new(&a.database, &a.points_to);

    // Changing raw_reading's type requires changing scaled_reading (strong,
    // through +).
    let report = dep
        .analyze("raw_reading", &DependOptions::default())
        .unwrap();
    let names: Vec<String> = report
        .dependents()
        .iter()
        .map(|d| a.database.object(d.obj).name.clone())
        .collect();
    assert!(names.contains(&"scaled_reading".to_string()), "{names:?}");

    // threshold's *value* flows to observed_value via *v in the handler.
    let report = dep.analyze("threshold", &DependOptions::default()).unwrap();
    let names: Vec<String> = report
        .dependents()
        .iter()
        .map(|d| a.database.object(d.obj).name.clone())
        .collect();
    assert!(
        names.contains(&"observed_value".to_string()),
        "threshold -> *v -> observed_value: {names:?}"
    );
}

#[test]
fn solver_agreement_on_realistic_code() {
    let a = build();
    let program = a.database.to_unit().unwrap();
    let wl = cla::core::worklist::solve(&program);
    assert_eq!(a.points_to, wl, "pre-transitive (demand) vs worklist");
    let st = cla::core::steensgaard::solve(&program);
    assert!(a.points_to.subsumed_by(&st));
}

#[test]
fn preprocessor_handled_the_real_constructs() {
    let a = build();
    // NBUCKETS macro expanded into the array size; include guards worked
    // (hash.h parsed once per unit); the static hash function stayed local.
    assert_eq!(a.database.targets("hash_string").len(), 1);
    let r = &a.report;
    assert!(r.files == 4);
    assert!(r.assign_counts.total() > 40);
}
