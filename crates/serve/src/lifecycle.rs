//! The shard lifecycle as one pure state machine.
//!
//! [`Lifecycle`] makes every decision about a shard's worker that does not
//! touch a model: routing, budget slots, LRU drains and retirement. It has
//! no threads, locks, channels or clock, and it is generic over the route
//! `R` a fix is sent on (a `Sender` in the server, a token in the tests).
//! A shard is COLD while no worker is routed for its key; a worker whose
//! route is gone is DRAINING. The server removes routes, and sends fixes
//! and markers, under one lock, so no fix is ever queued behind a marker.
//!
//! | state | event | effect | next |
//! |---|---|---|---|
//! | COLD | `submit` | `Spawn(id)`: the server starts worker `id`, then calls `spawned` | WARMING |
//! | WARMING | `submit` | `Send`, cold; counted as parked | WARMING |
//! | WARMING | `claim_room`, budget holds | `Claimed`: the worker holds a slot | WARMING |
//! | WARMING | `claim_room`, no room | `Wait(victim)`: `Drain` the LRU hot worker, unless the drains in flight already make room; claim again later | WARMING |
//! | WARMING | `claim_room`, no room, stopping | `GiveUp`: the worker exits without its model | exit |
//! | WARMING | `leased(cost)` | the slot holds `cost` bytes; past a byte budget, `Drain` LRU hot peers | HOT |
//! | WARMING | lease failed | the worker exits with the lease error | exit |
//! | HOT | `submit` | `Send`, not cold; the worker becomes the most recently active | HOT |
//! | HOT | picked as a drain victim | its route is removed and gets `Drain` | DRAINING |
//! | HOT | `idle` | its route is removed | DRAINING |
//! | HOT | `swapped` | counted | HOT |
//! | any | `shutdown` | every route is removed and gets `Shutdown`; later submits are refused | DRAINING |
//! | any | `exited`, also on unwind | slot, bytes and drain released; route removed if still its own | COLD |
//!
//! The budget test is one predicate: a worker may claim a slot when none is
//! held (a lone model always serves, however large), or when fewer than
//! the count budget are held and their bytes are under the byte budget. The
//! same test, net of the workers already asked to drain, says whether room
//! is on its way; only when it is not does a waiting worker ask for another
//! victim, so one cold fault never cascades into draining every hot shard.

use crate::{CatalogBudget, PagedStats, ServeError, ShardKey};
use std::collections::BTreeMap;

/// Names one shard worker for its whole life; never reused.
pub(crate) type WorkerId = u64;

/// One live worker.
#[derive(Debug, Clone)]
struct Worker {
    key: ShardKey,
    occupies: bool,
    /// Its phase and its model's budget cost: `None` while warming, the
    /// cost pinned at lease time once hot.
    cost: Option<usize>,
    drain_requested: bool,
    /// Logical time of its lease or of its last fix while hot.
    last_active: u64,
}

/// Where a submitted fix goes.
pub(crate) enum Submit<R> {
    /// Send it on `route`; `cold` while the shard's model faults in.
    Send { route: R, cold: bool },
    /// The shard is cold: start worker `id`, register it with
    /// [`Lifecycle::spawned`] and send the fix to it (cold).
    Spawn(WorkerId),
}

/// The answer to a warming worker's claim for a budget slot.
pub(crate) enum Room<R> {
    Claimed,
    /// No room yet: send `Drain` on the victim's route, if any; retry.
    Wait(Option<R>),
    /// Stopping, and no room: exit without faulting the model in.
    GiveUp,
}

/// Routing, budget slots and retirement of every shard worker.
#[derive(Debug, Clone)]
pub(crate) struct Lifecycle<R> {
    budget: CatalogBudget,
    /// The routed worker of every shard that is not cold, and its route.
    routes: BTreeMap<ShardKey, (WorkerId, R)>,
    /// Every worker spawned and not yet exited.
    workers: BTreeMap<WorkerId, Worker>,
    /// Logical activity clock; a worker's id is the tick of the submit
    /// that spawned it.
    clock: u64,
    stopping: bool,
    /// The counters; `hot_shards` is read off the workers.
    stats: PagedStats,
}

impl<R: Clone> Lifecycle<R> {
    pub(crate) fn new(budget: CatalogBudget) -> Self {
        Lifecycle {
            budget,
            routes: BTreeMap::new(),
            workers: BTreeMap::new(),
            clock: 0,
            stopping: false,
            stats: PagedStats::default(),
        }
    }

    /// Routes one fix for `key`; [`ServeError::ShuttingDown`] once
    /// [`Lifecycle::shutdown`] ran.
    pub(crate) fn submit(&mut self, key: ShardKey) -> Result<Submit<R>, ServeError> {
        if self.stopping {
            return Err(ServeError::ShuttingDown);
        }
        self.clock += 1;
        let Some((id, route)) = self.routes.get(&key) else {
            return Ok(Submit::Spawn(self.clock));
        };
        let cold = match self.workers.get_mut(id) {
            Some(worker) if worker.cost.is_some() => {
                worker.last_active = self.clock;
                false
            }
            _ => {
                self.stats.parked_requests += 1;
                true
            }
        };
        Ok(Submit::Send {
            route: route.clone(),
            cold,
        })
    }

    /// Registers worker `id`, started for a [`Submit::Spawn`], as
    /// `key`'s route; its first fix parks.
    pub(crate) fn spawned(&mut self, id: WorkerId, key: ShardKey, route: R) {
        self.workers.insert(
            id,
            Worker {
                key,
                occupies: false,
                cost: None,
                drain_requested: false,
                last_active: 0,
            },
        );
        self.routes.insert(key, (id, route));
        self.stats.faults += 1;
        self.stats.parked_requests += 1;
    }

    /// A warming worker claims a budget slot.
    pub(crate) fn claim_room(&mut self, id: WorkerId) -> Room<R> {
        if self.has_room(false) {
            if let Some(worker) = self.workers.get_mut(&id) {
                worker.occupies = true;
            }
            return Room::Claimed;
        }
        if self.stopping {
            return Room::GiveUp;
        }
        Room::Wait(if self.has_room(true) {
            None
        } else {
            self.drain_lru(id)
        })
    }

    /// Worker `id` leased a model of budget `cost`. Byte budgets learn a
    /// cost only now: past the bound, net of the bytes already draining,
    /// this drains LRU hot peers until the budget holds or none is left.
    pub(crate) fn leased(&mut self, id: WorkerId, cost: usize) -> Vec<R> {
        self.clock += 1;
        if let Some(worker) = self.workers.get_mut(&id) {
            worker.cost = Some(cost);
            worker.last_active = self.clock;
        }
        let mut victims = Vec::new();
        if let CatalogBudget::Bytes(bound) = self.budget {
            while self.occupied(true).1 > bound {
                match self.drain_lru(id) {
                    Some(route) => victims.push(route),
                    None => break,
                }
            }
        }
        victims
    }

    /// Hot worker `id` found its queue empty for the idle TTL and retires.
    pub(crate) fn idle(&mut self, id: WorkerId) {
        self.unroute(id);
        self.stats.idle_spin_downs += 1;
    }

    /// A hot worker swapped to a newly activated model version.
    pub(crate) fn swapped(&mut self) {
        self.stats.refresh_swaps += 1;
    }

    /// Stops routing: every route comes back for its `Shutdown` marker,
    /// and later submits are refused.
    pub(crate) fn shutdown(&mut self) -> Vec<R> {
        self.stopping = true;
        std::mem::take(&mut self.routes)
            .into_values()
            .map(|(_, route)| route)
            .collect()
    }

    /// Worker `id` is gone, however it ended: its slot, bytes and drain in
    /// flight are released, and its route if it is still its own.
    pub(crate) fn exited(&mut self, id: WorkerId) {
        self.unroute(id);
        self.workers.remove(&id);
    }

    /// The counters, with `hot_shards` the slots held now.
    pub(crate) fn stats(&self) -> PagedStats {
        PagedStats {
            hot_shards: self.occupied(false).0,
            ..self.stats
        }
    }

    fn unroute(&mut self, id: WorkerId) {
        if let Some(worker) = self.workers.get(&id) {
            if self.routes.get(&worker.key).map(|(routed, _)| *routed) == Some(id) {
                self.routes.remove(&worker.key);
            }
        }
    }

    /// Slots held and the bytes of their models; `net_of_drains` leaves
    /// out the workers already asked to drain.
    fn occupied(&self, net_of_drains: bool) -> (usize, usize) {
        self.workers
            .values()
            .filter(|w| w.occupies && !(net_of_drains && w.drain_requested))
            .fold((0, 0), |(slots, bytes), w| {
                (slots + 1, bytes + w.cost.unwrap_or(0))
            })
    }

    /// The budget test (module docs).
    fn has_room(&self, net_of_drains: bool) -> bool {
        let (slots, bytes) = self.occupied(net_of_drains);
        slots == 0
            || match self.budget {
                CatalogBudget::Unbounded => true,
                CatalogBudget::Count(n) => slots < n,
                CatalogBudget::Bytes(bound) => bytes < bound,
            }
    }

    /// Unroutes the least-recently-active routed hot worker other than
    /// `except` and marks it draining.
    fn drain_lru(&mut self, except: WorkerId) -> Option<R> {
        let (_, key) = self
            .routes
            .iter()
            .filter_map(|(key, (id, _))| {
                let worker = self.workers.get(id)?;
                (worker.cost.is_some() && *id != except).then_some((worker.last_active, *key))
            })
            .min()?;
        let (id, route) = self.routes.remove(&key)?;
        if let Some(worker) = self.workers.get_mut(&id) {
            worker.drain_requested = true;
        }
        self.stats.drains += 1;
        Some(route)
    }
}

#[cfg(test)]
mod tests {
    //! Every enabled event sequence up to a fixed depth, explored with
    //! plain loops over a model server: the lifecycle under test routes
    //! worker ids as its tokens, and the test drives one model thread per
    //! worker (its queue, and where it stands) the way the server drives
    //! its shard workers. Invariants are checked after every event; from
    //! every state reached, the test also shuts down and runs every
    //! thread to its exit, and checks that all accounting reads 0. The
    //! search is breadth first over states up to a renaming of workers,
    //! so each distinct state's events are applied once while the count
    //! of sequences covered stays exact.

    use super::*;
    use std::collections::{HashMap, HashSet, VecDeque};

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Msg {
        Fix,
        Drain,
        Shutdown,
    }

    /// Where a model thread stands.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Pc {
        /// Claiming a budget slot.
        Claim,
        /// Holding a slot, faulting its model in.
        Lease,
        /// Hot: serving its queue.
        Serve,
        /// Took its marker (or went idle): handing its model back.
        Retire,
    }

    #[derive(Debug, Clone)]
    struct Thread {
        key: usize,
        pc: Pc,
        queue: VecDeque<Msg>,
        /// A marker was sent to it.
        marked: bool,
        /// That marker was `Drain`.
        drained: bool,
    }

    #[derive(Debug, Clone, Copy)]
    enum Event {
        Submit(usize),
        Shutdown,
        /// The thread's next step: claim, lease, serve its queue up to a
        /// marker, or (retiring) exit.
        Step(WorkerId),
        /// The thread ends early: a lease failure, or an unwind anywhere.
        Exit(WorkerId),
        /// The thread's queue stayed empty for the idle TTL.
        Idle(WorkerId),
    }

    #[derive(Debug)]
    struct Config {
        budget: CatalogBudget,
        keys: usize,
        /// Each key's model cost.
        costs: [usize; 3],
        depth: usize,
    }

    impl Config {
        fn max_hot(&self) -> usize {
            match self.budget {
                CatalogBudget::Count(n) => n,
                _ => usize::MAX,
            }
        }

        fn bound(&self) -> Option<usize> {
            match self.budget {
                CatalogBudget::Bytes(bound) => Some(bound),
                _ => None,
            }
        }

        /// The budget rule, restated: may one more worker take a slot
        /// next to `slots` slots holding `bytes`?
        fn fits(&self, (slots, bytes): (usize, usize)) -> bool {
            slots == 0 || (slots < self.max_hot() && self.bound().is_none_or(|b| bytes < b))
        }
    }

    #[derive(Clone)]
    struct World {
        lc: Lifecycle<WorkerId>,
        threads: BTreeMap<WorkerId, Thread>,
    }

    fn key(k: usize) -> ShardKey {
        ShardKey::building(k)
    }

    fn check(ok: bool, what: &str) -> Result<(), String> {
        if ok {
            Ok(())
        } else {
            Err(what.to_string())
        }
    }

    impl World {
        /// Slots and bytes the threads hold, by the test's own reckoning;
        /// `net` leaves out the drained ones.
        fn load(&self, cfg: &Config, net: bool) -> (usize, usize) {
            self.threads
                .values()
                .filter(|t| t.pc != Pc::Claim && !(net && t.drained))
                .fold((0, 0), |(slots, bytes), t| {
                    let cost = match t.pc {
                        Pc::Serve | Pc::Retire => cfg.costs[t.key],
                        Pc::Claim | Pc::Lease => 0,
                    };
                    (slots + 1, bytes + cost)
                })
        }

        /// Routed hot threads other than `except`, least recently active
        /// first: the drain victims, in order.
        fn victims(&self, except: WorkerId) -> Vec<WorkerId> {
            let mut hot: Vec<(u64, ShardKey, WorkerId)> = self
                .lc
                .routes
                .iter()
                .filter(|(_, (id, _))| *id != except && self.threads[id].pc == Pc::Serve)
                .map(|(k, (id, _))| (self.lc.workers[id].last_active, *k, *id))
                .collect();
            hot.sort_unstable();
            hot.into_iter().map(|(_, _, id)| id).collect()
        }

        fn routed(&self, id: WorkerId) -> bool {
            self.lc.routes.values().any(|(routed, _)| *routed == id)
        }

        fn mark(&mut self, id: WorkerId, msg: Msg) -> Result<(), String> {
            let thread = self
                .threads
                .get_mut(&id)
                .ok_or("a marker went to an exited worker")?;
            check(!thread.marked, "a worker got a second marker")?;
            check(
                msg != Msg::Drain || thread.pc == Pc::Serve,
                "a Drain went to a worker that is not hot",
            )?;
            thread.marked = true;
            thread.drained = msg == Msg::Drain;
            thread.queue.push_back(msg);
            Ok(())
        }

        fn exit(&mut self, id: WorkerId) {
            self.lc.exited(id);
            // Fixes still queued get their typed rejection here.
            self.threads.remove(&id);
        }

        fn enabled(&self) -> Vec<Event> {
            let mut events: Vec<Event> = (0..3).map(Event::Submit).collect();
            if !self.lc.stopping {
                events.push(Event::Shutdown);
            }
            for (id, thread) in &self.threads {
                if thread.pc != Pc::Serve || !thread.queue.is_empty() {
                    events.push(Event::Step(*id));
                }
                if thread.pc != Pc::Retire {
                    events.push(Event::Exit(*id));
                }
                if thread.pc == Pc::Serve && thread.queue.is_empty() {
                    events.push(Event::Idle(*id));
                }
            }
            events
        }

        /// The state up to a renaming of workers and a shift of the
        /// activity clock; counters are left out (checked per event).
        fn canonical(&self) -> Vec<u64> {
            let rank: BTreeMap<WorkerId, u64> = self
                .threads
                .keys()
                .zip(0..)
                .map(|(id, r)| (*id, r))
                .collect();
            let mut clock: Vec<u64> = self.lc.workers.values().map(|w| w.last_active).collect();
            clock.sort_unstable();
            clock.dedup();
            let mut out = vec![u64::from(self.lc.stopping)];
            for k in 0..3 {
                out.push(
                    self.lc
                        .routes
                        .get(&key(k))
                        .map_or(0, |(id, _)| rank[id] + 1),
                );
            }
            for (id, thread) in &self.threads {
                let w = &self.lc.workers[id];
                let active = clock.binary_search(&w.last_active).unwrap_or(0) as u64;
                out.extend([
                    thread.key as u64,
                    thread.pc as u64,
                    u64::from(thread.marked),
                    u64::from(thread.drained),
                    u64::from(w.occupies),
                    w.cost.map_or(0, |c| c as u64 + 1),
                    u64::from(w.drain_requested),
                    active,
                    thread.queue.len() as u64,
                ]);
                out.extend(thread.queue.iter().map(|m| *m as u64));
            }
            out
        }
    }

    /// Applies one event and checks the invariants. `Ok(None)`: the event
    /// changes nothing here (not enabled).
    fn apply(cfg: &Config, before: &World, event: Event) -> Result<Option<World>, String> {
        let mut w = before.clone();
        let stats = before.lc.stats;
        match event {
            Event::Submit(k) => match w.lc.submit(key(k)) {
                Err(_) => check(before.lc.stopping, "a submit was refused while serving")?,
                Ok(_) if before.lc.stopping => {
                    return Err("a route was handed out after shutdown".into())
                }
                Ok(Submit::Spawn(id)) => {
                    check(
                        !before.lc.routes.contains_key(&key(k)) && !w.threads.contains_key(&id),
                        "a worker was spawned for a routed key",
                    )?;
                    w.lc.spawned(id, key(k), id);
                    w.threads.insert(
                        id,
                        Thread {
                            key: k,
                            pc: Pc::Claim,
                            queue: VecDeque::from([Msg::Fix]),
                            marked: false,
                            drained: false,
                        },
                    );
                    check(
                        w.lc.stats.faults == stats.faults + 1
                            && w.lc.stats.parked_requests == stats.parked_requests + 1,
                        "a spawn was not counted as a fault and a parked fix",
                    )?;
                }
                Ok(Submit::Send { route, cold }) => {
                    let thread = w
                        .threads
                        .get_mut(&route)
                        .ok_or("a fix was routed to an exited worker")?;
                    check(thread.key == k, "a fix was routed to another shard")?;
                    check(!thread.marked, "a fix was queued behind a marker")?;
                    check(
                        cold == matches!(thread.pc, Pc::Claim | Pc::Lease),
                        "a fix got the wrong cold flag",
                    )?;
                    thread.queue.push_back(Msg::Fix);
                    check(
                        w.lc.stats.parked_requests == stats.parked_requests + u64::from(cold),
                        "parked fixes miscounted",
                    )?;
                }
            },
            Event::Shutdown => {
                for route in w.lc.shutdown() {
                    w.mark(route, Msg::Shutdown)?;
                }
            }
            Event::Step(id) => match w.threads[&id].pc {
                Pc::Claim => {
                    let gross = cfg.fits(before.load(cfg, false));
                    let net = cfg.fits(before.load(cfg, true));
                    match w.lc.claim_room(id) {
                        Room::Claimed => {
                            check(gross, "a slot was claimed past the budget")?;
                            w.threads.get_mut(&id).ok_or("no thread")?.pc = Pc::Lease;
                        }
                        Room::GiveUp => {
                            check(!gross && before.lc.stopping, "a worker gave up needlessly")?;
                            w.exit(id);
                        }
                        Room::Wait(None) => {
                            check(!gross, "a worker waited with room free")?;
                            check(!before.lc.stopping, "a worker kept waiting after shutdown")?;
                            check(
                                net || before.victims(id).is_empty(),
                                "no drain was asked for with no room on its way",
                            )?;
                            return Ok(None);
                        }
                        Room::Wait(Some(victim)) => {
                            check(!gross, "a drain was asked for with room free")?;
                            check(!before.lc.stopping, "a worker kept waiting after shutdown")?;
                            check(
                                !net,
                                "a drain was asked for while drains in flight make room",
                            )?;
                            check(
                                before.victims(id).first() == Some(&victim),
                                "the drain victim is not the least recently active hot worker",
                            )?;
                            w.mark(victim, Msg::Drain)?;
                            check(w.lc.stats.drains == stats.drains + 1, "drain not counted")?;
                        }
                    }
                }
                Pc::Lease => {
                    let k = w.threads[&id].key;
                    let victims = w.lc.leased(id, cfg.costs[k]);
                    w.threads.get_mut(&id).ok_or("no thread")?.pc = Pc::Serve;
                    check(
                        before.victims(id).starts_with(&victims),
                        "lease victims are not the least recently active hot workers",
                    )?;
                    for victim in &victims {
                        w.mark(*victim, Msg::Drain)?;
                    }
                    check(
                        w.lc.stats.drains == stats.drains + victims.len() as u64,
                        "drains miscounted",
                    )?;
                    match cfg.bound() {
                        None => check(victims.is_empty(), "a count budget drained on lease")?,
                        Some(bound) => {
                            let live = w.load(cfg, true).1;
                            check(
                                live <= bound || w.victims(id).is_empty(),
                                "a lease left the byte budget exceeded with victims left",
                            )?;
                            if let Some(last) = victims.last() {
                                let cost = cfg.costs[w.threads[last].key];
                                check(live + cost > bound, "a lease drained more than it needed")?;
                            }
                        }
                    }
                }
                Pc::Serve => {
                    let thread = w.threads.get_mut(&id).ok_or("no thread")?;
                    if thread.queue.is_empty() {
                        return Ok(None);
                    }
                    // Serve the queue up to the first marker (each fix
                    // gets its one answer here).
                    while let Some(msg) = thread.queue.pop_front() {
                        if msg != Msg::Fix {
                            thread.pc = Pc::Retire;
                            break;
                        }
                    }
                }
                Pc::Retire => {
                    check(
                        w.threads[&id].queue.is_empty(),
                        "a retiring worker still has queued work",
                    )?;
                    w.exit(id);
                }
            },
            Event::Exit(id) => w.exit(id),
            Event::Idle(id) => {
                check(before.routed(id), "an unrouted worker went idle")?;
                w.lc.idle(id);
                w.threads.get_mut(&id).ok_or("no thread")?.pc = Pc::Retire;
                check(
                    w.lc.stats.idle_spin_downs == stats.idle_spin_downs + 1,
                    "idle spin-down not counted",
                )?;
            }
        }
        invariants(cfg, &w)?;
        Ok(Some(w))
    }

    /// The invariants every state keeps.
    fn invariants(cfg: &Config, w: &World) -> Result<(), String> {
        let ids: Vec<_> = w.lc.workers.keys().collect();
        check(
            ids == w.threads.keys().collect::<Vec<_>>(),
            "the lifecycle's workers are not the live threads",
        )?;
        for (id, thread) in &w.threads {
            let r = &w.lc.workers[id];
            let hot = matches!(thread.pc, Pc::Serve | Pc::Retire);
            check(r.key == key(thread.key), "a worker changed shards")?;
            check(
                r.occupies == (thread.pc != Pc::Claim),
                "slot held out of step",
            )?;
            check(
                r.cost == hot.then_some(cfg.costs[thread.key]),
                "phase or cost out of step",
            )?;
            check(r.drain_requested == thread.drained, "drain out of step")?;
            // A worker that is neither routed, nor marked, nor retiring
            // would never exit.
            check(
                w.routed(*id) || thread.marked || thread.pc == Pc::Retire,
                "an orphaned worker",
            )?;
        }
        for (k, (id, route)) in &w.lc.routes {
            let thread = w.threads.get(id).ok_or("a route to an exited worker")?;
            check(
                route == id && key(thread.key) == *k,
                "a route to the wrong worker",
            )?;
            check(
                !thread.marked && thread.pc != Pc::Retire,
                "a route to a retiring worker",
            )?;
        }
        check(
            !w.lc.stopping || w.lc.routes.is_empty(),
            "a route survived shutdown",
        )?;
        let gross = w.load(cfg, false);
        check(
            w.lc.occupied(false) == gross && w.lc.occupied(true) == w.load(cfg, true),
            "slot or byte accounting out of step",
        )?;
        check(w.lc.stats().hot_shards == gross.0, "hot_shards")?;
        check(
            gross.0 <= cfg.max_hot(),
            "more slots held than the count budget",
        )?;
        if let Some(bound) = cfg.bound() {
            let routed_hot =
                w.lc.routes
                    .values()
                    .filter(|(id, _)| w.threads[id].pc == Pc::Serve)
                    .count();
            check(
                w.load(cfg, true).1 <= bound || routed_hot <= 1,
                "held bytes net of drains exceed the byte budget beside another hot worker",
            )?;
        }
        Ok(())
    }

    /// Shuts down and runs every thread to its exit, stopping early at a
    /// state an earlier run already took to a clean end (`clean`).
    fn quiesce(cfg: &Config, from: &World, clean: &mut HashSet<Vec<u64>>) -> Result<(), String> {
        let mut w = from.clone();
        let mut run = Vec::new();
        loop {
            let state = w.canonical();
            if clean.contains(&state) {
                break;
            }
            run.push(state);
            if !w.lc.stopping {
                w = apply(cfg, &w, Event::Shutdown)?.ok_or("shutdown did nothing")?;
                continue;
            }
            if w.threads.is_empty() {
                check(
                    w.lc.workers.is_empty()
                        && w.lc.routes.is_empty()
                        && w.lc.occupied(false) == (0, 0)
                        && w.lc.stats().hot_shards == 0,
                    "accounting left over once every worker exited",
                )?;
                break;
            }
            let mut next = None;
            for event in w.enabled() {
                if let Event::Step(_) = event {
                    if let Some(stepped) = apply(cfg, &w, event)? {
                        next = Some(stepped);
                        break;
                    }
                }
            }
            w = next.ok_or("workers that can never exit")?;
        }
        clean.extend(run);
        Ok(())
    }

    /// Every state reachable in at most `cfg.depth` events, breadth
    /// first: each state's events are applied (and checked) once, and
    /// from each state a shutdown runs to quiescence. Returns the number
    /// of event sequences of length `cfg.depth` and of distinct states.
    fn explore(cfg: &Config) -> (u64, usize) {
        let start = World {
            lc: Lifecycle::new(cfg.budget),
            threads: BTreeMap::new(),
        };
        let mut index = HashMap::from([(start.canonical(), 0)]);
        let mut worlds = vec![start];
        // How each state was first reached, to name a failing sequence.
        let mut reached: Vec<Option<(usize, Event)>> = vec![None];
        let mut successors: Vec<Vec<usize>> = vec![Vec::new()];
        let path = |reached: &[Option<(usize, Event)>], mut s: usize| {
            let mut events = Vec::new();
            while let Some((from, event)) = reached[s] {
                events.push(event);
                s = from;
            }
            events.reverse();
            events
        };
        let mut clean = HashSet::new();
        let mut frontier = vec![0];
        for depth in 0..=cfg.depth {
            let mut next = Vec::new();
            for s in frontier {
                if let Err(msg) = quiesce(cfg, &worlds[s], &mut clean) {
                    panic!(
                        "{cfg:?}: {msg} while quiescing after {:?}",
                        path(&reached, s)
                    );
                }
                if depth == cfg.depth {
                    continue;
                }
                for event in worlds[s].enabled() {
                    if matches!(event, Event::Submit(k) if k >= cfg.keys) {
                        continue;
                    }
                    let child = match apply(cfg, &worlds[s], event) {
                        Err(msg) => panic!(
                            "{cfg:?}: {msg} after {:?} then {event:?}",
                            path(&reached, s)
                        ),
                        Ok(None) => continue,
                        Ok(Some(child)) => child,
                    };
                    let c = *index.entry(child.canonical()).or_insert_with(|| {
                        worlds.push(child);
                        reached.push(Some((s, event)));
                        successors.push(Vec::new());
                        next.push(worlds.len() - 1);
                        worlds.len() - 1
                    });
                    successors[s].push(c);
                }
            }
            frontier = next;
        }
        // Sequences of `n` more events from each state, for n = 0..=depth.
        let mut ways = vec![1u64; worlds.len()];
        for _ in 0..cfg.depth {
            ways = successors
                .iter()
                .map(|next| next.iter().map(|c| ways[*c]).sum())
                .collect();
        }
        (ways[0], worlds.len())
    }

    /// The exhaustive check: under an unbounded budget, one and two
    /// slots, and a byte budget with two model costs, for two and three
    /// shards, every enabled event sequence up to the depth keeps every
    /// invariant, and from every state reached a shutdown retires every
    /// worker with all accounting back at 0.
    #[test]
    fn every_event_sequence_keeps_the_lifecycle_invariants() {
        let budgets = [
            (CatalogBudget::Unbounded, [1, 1, 1]),
            (CatalogBudget::Count(1), [1, 1, 1]),
            (CatalogBudget::Count(2), [1, 1, 1]),
            (CatalogBudget::Bytes(10), [6, 4, 6]),
        ];
        for (budget, costs) in budgets {
            for (keys, depth) in [(2, 10), (3, 9)] {
                let cfg = Config {
                    budget,
                    keys,
                    costs,
                    depth,
                };
                let (sequences, states) = explore(&cfg);
                println!("{budget:?}, {keys} shards, depth {depth}: {sequences} sequences, {states} states");
                assert!(sequences > 0);
            }
        }
    }
}
