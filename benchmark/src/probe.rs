//! The host-speed probe: a fixed piece of work that owes nothing to the
//! program under test, shaped like what a discrete-event simulator does to a
//! machine (grow a heap of small boxed objects, chase pointers through it,
//! churn allocations, walk an ordered map, free it all).
//!
//! Why it exists: in the sandbox this benchmark has to be steady in, the
//! guest's memory latency drifts by tens of percent from minute to minute
//! while integer code stays put, and the simulator follows the memory. A
//! probe child runs next to every timed child; the README says what is done
//! with its reading.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::load::Lcg;

struct Node {
    next: u32,
    payload: Vec<u8>,
}

const NODES: usize = 150_000;
const STEPS: usize = 1_200_000;

/// Runs the probe once and returns its wall seconds.
pub fn run() -> f64 {
    let t = Instant::now();
    let mut lcg = Lcg::new(0xC0FFEE);
    let size = |lcg: &mut Lcg| 48 + lcg.below(976) as usize;

    // Grow: first touch of ~100 MB in small allocations.
    let mut nodes: Vec<Box<Node>> = (0..NODES)
        .map(|i| {
            Box::new(Node {
                next: i as u32,
                payload: vec![i as u8; size(&mut lcg)],
            })
        })
        .collect();
    // One cycle through all nodes in pseudo-random order (Sattolo).
    let mut order: Vec<u32> = (0..NODES as u32).collect();
    for i in (1..NODES).rev() {
        order.swap(i, lcg.below(i as u64) as usize);
    }
    for w in 0..NODES {
        nodes[order[w] as usize].next = order[(w + 1) % NODES];
    }

    // Chase and churn: dependent loads through the heap; every fourth step
    // frees a payload and allocates another of a different size.
    let mut at = 0u32;
    let mut sum = 0u64;
    for step in 0..STEPS {
        let node = &mut nodes[at as usize];
        sum += u64::from(node.payload[0]);
        if step % 4 == 0 {
            node.payload = vec![step as u8; size(&mut lcg)];
        }
        at = node.next;
    }

    // An ordered map under insert/remove, as timer wheels, logs and
    // registries keep.
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    for i in 0..400_000u64 {
        map.insert(lcg.next_u64() >> 20, i);
        if i % 2 == 1 {
            if let Some((k, v)) = map.pop_first() {
                sum ^= k ^ v;
            }
        }
    }
    black_box((sum, map.len()));
    drop(map);
    drop(nodes);
    t.elapsed().as_secs_f64()
}
