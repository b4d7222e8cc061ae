(* Long-lived workers wait on a condition variable for the next job
   generation; within a job, indices are claimed in contiguous chunks
   with a single fetch-and-add per chunk, so imbalance between sources
   (dense vs sparse neighborhoods) self-corrects while a 10^5-index
   loop pays for ~64 claims per domain rather than one per index.  The
   caller participates in the job and then waits for stragglers, so a
   job is fully quiescent when [parallel_for] returns. *)

let c_for = Obs.counter "pool.parallel_for"
let c_tasks = Obs.counter "pool.tasks"
let d_jobs = Obs.dist "pool.jobs"
let g_util = Obs.gauge "pool.utilization"

type shared = {
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable generation : int;
  mutable mk_body : slot:int -> int -> unit;
  mutable total : int;
  mutable chunk : int;  (* indices per claim *)
  next : int Atomic.t;
  mutable active : int;  (* workers still inside the current job *)
  mutable stop : bool;
  mutable failure : (int * exn) option;  (* smallest failing index *)
  mutable trace_group : int;  (* Obs.Trace job group, -1 when not tracing *)
}

type t = { shared : shared; domains : unit Domain.t array }

let default_jobs () = Domain.recommended_domain_count ()

let record_failure shared i exn =
  Mutex.lock shared.mutex;
  (match shared.failure with
  | Some (j, _) when j <= i -> ()
  | _ -> shared.failure <- Some (i, exn));
  Mutex.unlock shared.mutex

(* About 64 claims per domain: few enough that claiming is noise
   next to a cheap per-index body, many enough that the last chunks
   still balance uneven work.  Loops shorter than 64 per domain (tile
   loops) keep claiming one index at a time. *)
let chunk_size ~n ~jobs = max 1 (n / (64 * jobs))

(* Claim and run chunks until the job is drained.  Runs in workers
   and in the caller; must not hold the mutex.  Every index of a chunk
   runs even when an earlier one raised, so the smallest failing index
   is recorded whatever the chunking.  When tracing, each index is
   declared to Obs.Trace so the events it records carry (group, task)
   and merge deterministically. *)
let drain shared body =
  let g = shared.trace_group in
  let total = shared.total and chunk = shared.chunk in
  let continue = ref true in
  while !continue do
    let lo = Atomic.fetch_and_add shared.next chunk in
    if lo >= total then continue := false
    else
      for i = lo to min total (lo + chunk) - 1 do
        if g >= 0 then Obs.Trace.set_context ~group:g ~task:i;
        try body i with exn -> record_failure shared i exn
      done
  done;
  if g >= 0 then Obs.Trace.set_context ~group:(-1) ~task:(-1)

let worker shared slot =
  let last_gen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock shared.mutex;
    while (not shared.stop) && shared.generation = !last_gen do
      Condition.wait shared.work_ready shared.mutex
    done;
    if shared.stop then begin
      Mutex.unlock shared.mutex;
      running := false
    end
    else begin
      last_gen := shared.generation;
      let mk_body = shared.mk_body in
      Mutex.unlock shared.mutex;
      (match mk_body ~slot with
      | body -> drain shared body
      | exception exn -> record_failure shared 0 exn);
      Mutex.lock shared.mutex;
      shared.active <- shared.active - 1;
      if shared.active = 0 then Condition.signal shared.work_done;
      Mutex.unlock shared.mutex
    end
  done

let create ~jobs () =
  let jobs = max 1 jobs in
  let shared =
    {
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      generation = 0;
      mk_body = (fun ~slot:_ _ -> ());
      total = 0;
      chunk = 1;
      next = Atomic.make 0;
      active = 0;
      stop = false;
      failure = None;
      trace_group = -1;
    }
  in
  let domains =
    Array.init (jobs - 1) (fun k ->
        Domain.spawn (fun () -> worker shared (k + 1)))
  in
  { shared; domains }

let jobs t = Array.length t.domains + 1

let parallel_for_slots t ~n mk_body =
  if n > 0 then begin
    Obs.incr c_for;
    Obs.add c_tasks n;
    if !Obs.on then begin
      Obs.observe d_jobs (float_of_int (jobs t));
      (* worker domains in use as a fraction of what the host offers *)
      Obs.set_gauge g_util
        (float_of_int (jobs t) /. float_of_int (max 1 (default_jobs ())))
    end;
    let shared = t.shared in
    let g = if !Obs.Trace.on then Obs.Trace.new_group () else -1 in
    if g >= 0 then Obs.Trace.job_enter g;
    if Array.length t.domains = 0 then begin
      (* inline fast path: no locking, same claim/record protocol *)
      shared.trace_group <- g;
      shared.total <- n;
      shared.chunk <- chunk_size ~n ~jobs:1;
      Atomic.set shared.next 0;
      shared.failure <- None;
      drain shared (mk_body ~slot:0)
    end
    else begin
      Mutex.lock shared.mutex;
      shared.trace_group <- g;
      shared.mk_body <- mk_body;
      shared.total <- n;
      shared.chunk <- chunk_size ~n ~jobs:(jobs t);
      Atomic.set shared.next 0;
      shared.failure <- None;
      shared.active <- Array.length t.domains;
      shared.generation <- shared.generation + 1;
      Condition.broadcast shared.work_ready;
      Mutex.unlock shared.mutex;
      (match mk_body ~slot:0 with
      | body -> drain shared body
      | exception exn -> record_failure shared 0 exn);
      Mutex.lock shared.mutex;
      while shared.active > 0 do
        Condition.wait shared.work_done shared.mutex
      done;
      Mutex.unlock shared.mutex
    end;
    if g >= 0 then Obs.Trace.job_leave g;
    match shared.failure with
    | Some (_, exn) -> raise exn
    | None -> ()
  end

let parallel_for t ~n mk_body =
  parallel_for_slots t ~n (fun ~slot:_ -> mk_body ())

let shutdown t =
  let shared = t.shared in
  Mutex.lock shared.mutex;
  shared.stop <- true;
  Condition.broadcast shared.work_ready;
  Mutex.unlock shared.mutex;
  Array.iter Domain.join t.domains

let with_pool ~jobs f =
  let t = create ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
