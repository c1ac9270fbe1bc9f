module Clock = Lambekd_telemetry.Clock
module Probe = Lambekd_telemetry.Probe

let c_enqueued = Probe.counter "service.enqueued"
let c_dequeued = Probe.counter "service.dequeued"
let c_expired_in_queue = Probe.counter "scheduler.expired_in_queue"
let c_claim_faults = Probe.counter "scheduler.claim_faults"

(* The two kinds of queued work.  Stateless requests may be answered
   straight from the queue when their deadline already expired; session
   ops may NOT — the entry's turn only advances inside [Session.exec],
   so shortcutting one would deadlock every later op of that session
   (the executor answers an expired budget itself, before touching the
   buffer). *)
type work =
  | W_request of Protocol.request
  | W_session of Session.routed

type job = {
  work : work;
  deadline_ns : float option;  (** fixed at submission: queue time counts *)
  k : Protocol.response -> unit;
}

type t = {
  mu : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  queue : job Queue.t;
  cap : int;
  ndomains : int;
  reg : Registry.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

let domains t = t.ndomains
let registry t = t.reg
let depth t = Mutex.protect t.mu (fun () -> Queue.length t.queue)

let deadline_of timeout_ms =
  Option.map (fun ms -> Clock.now_ns () +. (ms *. 1e6)) timeout_ms

let job_of req k =
  { work = W_request req; deadline_ns = deadline_of req.Protocol.timeout_ms; k }

let session_job_of routed k =
  let sq = Session.sreq routed in
  { work = W_session routed;
    deadline_ns = deadline_of sq.Protocol.sq_timeout_ms;
    k }

let work_trace = function
  | W_request req -> req.Protocol.trace
  | W_session routed -> (Session.sreq routed).Protocol.sq_trace

let work_id = function
  | W_request req -> req.Protocol.id
  | W_session routed -> (Session.sreq routed).Protocol.sq_id

(* A deadline that expired while the job sat queued yields the timeout
   response right here, without ever entering an engine — [Exec.run]
   only polls the clock inside engine loops, so without this check a
   long-dead request would still pay artifact lookup and engine setup. *)
let expired_in_queue job =
  match job.deadline_ns with
  | Some d when Clock.now_ns () > d -> true
  | _ -> false

let run_job t job =
  Probe.bump c_dequeued;
  Option.iter Trace.stamp_dequeued (work_trace job.work);
  let resp =
    match job.work with
    | W_request req when expired_in_queue job ->
      Probe.bump c_expired_in_queue;
      Protocol.timeout ?id:req.Protocol.id
        ~after_ms:(Option.value req.Protocol.timeout_ms ~default:0.)
        ()
    | work -> (
      match
        match work with
        | W_request req -> Exec.run t.reg ?deadline_ns:job.deadline_ns req
        | W_session routed -> Session.exec ?deadline_ns:job.deadline_ns routed
      with
      | resp -> resp
      | exception exn ->
        (* an engine bug must not kill the worker; surface it to the client *)
        Protocol.bad_request ?id:(work_id work)
          (Fmt.str "internal error: %s" (Printexc.to_string exn)))
  in
  try job.k resp with _ -> ()

let worker t () =
  let rec loop () =
    (* the claim fault point: a [fail] draw voids this claim attempt —
       the worker backs off and claims on the next round anyway (that
       is the recovery); a [delay] stalls it.  Both fire outside the
       lock, so faults never stretch the critical section. *)
    (match Fault.disrupt Fault.Scheduler_claim with
    | () -> ()
    | exception Fault.Injected _ ->
      Probe.bump c_claim_faults;
      Domain.cpu_relax ());
    Mutex.lock t.mu;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.not_empty t.mu
    done;
    if Queue.is_empty t.queue then (* stopping && drained *)
      Mutex.unlock t.mu
    else begin
      let len = Queue.length t.queue in
      let was_full = len >= t.cap in
      (* claim a chunk per lock acquisition: with a deep queue, per-job
         locking makes every pop a contended futex wait (every worker
         fighting for the mutex), which on few cores costs more than the
         jobs themselves.  A worker's share of the queue, capped at 16
         so deadline polling stays fine-grained under load. *)
      let chunk = min 16 (max 1 (len / max 1 t.ndomains)) in
      let jobs = ref [] in
      for _ = 1 to chunk do
        jobs := Queue.pop t.queue :: !jobs
      done;
      (* wake producers only across the full boundary: they wait only at
         cap, so popping below it never needs a wakeup — on a single core
         this cuts the per-job context-switch ping-pong.  Broadcast, not
         signal: a chunk frees up to 16 slots, and every blocked producer
         (one per connection) must recheck, or all but one sleep on with
         room in the queue. *)
      if was_full then Condition.broadcast t.not_full;
      (* wakeup relay: producers signal only the empty→non-empty edge,
         so a worker that leaves work behind wakes the next worker *)
      if not (Queue.is_empty t.queue) then Condition.signal t.not_empty;
      Mutex.unlock t.mu;
      List.iter (run_job t) (List.rev !jobs);
      loop ()
    end
  in
  loop ()

let create ?domains ?(queue_cap = 64) ~registry () =
  let ndomains =
    match domains with
    | Some n when n >= 0 -> n
    | Some n -> invalid_arg (Fmt.str "Scheduler.create: domains = %d" n)
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  let t =
    { mu = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      queue = Queue.create ();
      cap = max 1 queue_cap;
      ndomains;
      reg = registry;
      stopping = false;
      workers = [] }
  in
  t.workers <- List.init ndomains (fun _ -> Domain.spawn (worker t));
  t

(* The one admission path: wait for queue room, then make the job and
   queue it under the queue lock.  Making it under the lock is what keeps
   session tickets in queue order (see [submit_session]).  With no
   workers there is nothing to queue for: the job runs here, outside the
   lock, on the submitting thread, through the same [run_job] a worker
   would use — deadline fixed at submission, queue-expiry check,
   exceptions answered as [internal error] — and is answered before this
   returns. *)
let enqueue t make_job =
  let inline =
    Mutex.protect t.mu (fun () ->
        while Queue.length t.queue >= t.cap && not t.stopping do
          Condition.wait t.not_full t.mu
        done;
        if t.stopping then invalid_arg "Scheduler: submit after shutdown";
        let job = make_job () in
        Probe.bump c_enqueued;
        if t.ndomains = 0 then Some job
        else begin
          (* dually, workers sleep only on an empty queue *)
          if Queue.is_empty t.queue then Condition.signal t.not_empty;
          Queue.push job t.queue;
          None
        end)
  in
  Option.iter (run_job t) inline

let submit t req k = enqueue t (fun () -> job_of req k)

(* Routing here, under the queue lock, issues each session ticket in the
   same step that queues it, so a session's tickets enter the FIFO in
   ticket order even when several connections share the table.  Routed
   first and queued after, a second connection's ticket k+1 could enter
   ahead of k; a worker holding k+1 would then wait in [Session.exec]
   for a turn that sits behind it in the queue or in its own chunk. *)
let submit_session t tab sq k =
  enqueue t (fun () -> session_job_of (Session.route tab sq) k)

let shutdown t =
  let workers =
    Mutex.protect t.mu (fun () ->
        t.stopping <- true;
        Condition.broadcast t.not_empty;
        Condition.broadcast t.not_full;
        let ws = t.workers in
        t.workers <- [];
        ws)
  in
  List.iter Domain.join workers
