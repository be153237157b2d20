(* Persistent domain pool.  Jobs are monomorphic chunk runners
   ([int -> unit]); polymorphism lives in [map_array], which closes over the
   typed input/output arrays so workers only ever see chunk indices.  Workers
   idle in [Condition.wait] between jobs — no spinning. *)

type t = {
  psize : int;
  mutable workers : unit Domain.t list;
  m : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable job : (int -> unit) option;  (* runner for the current job *)
  mutable next : int;  (* next unclaimed chunk *)
  mutable total : int;  (* chunks in the current job *)
  mutable unfinished : int;  (* chunks claimed or pending *)
  mutable stopped : bool;
}

let size t = t.psize

(* One worker: claim chunks while a job has some, otherwise sleep.  The
   runner is exception-free by construction (map_array catches per item), but
   a stray raise must not kill the domain mid-job, so it is contained here
   too. *)
let worker t () =
  Mutex.lock t.m;
  let rec loop () =
    if t.stopped then ()
    else
      match t.job with
      | Some run when t.next < t.total ->
          let i = t.next in
          t.next <- t.next + 1;
          Mutex.unlock t.m;
          (try run i with _ -> ());
          Mutex.lock t.m;
          t.unfinished <- t.unfinished - 1;
          if t.unfinished = 0 then Condition.broadcast t.work_done;
          loop ()
      | _ ->
          Condition.wait t.work_ready t.m;
          loop ()
  in
  loop ();
  Mutex.unlock t.m

let create psize =
  let t =
    {
      psize = max 1 psize;
      workers = [];
      m = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      job = None;
      next = 0;
      total = 0;
      unfinished = 0;
      stopped = false;
    }
  in
  if t.psize > 1 then
    t.workers <- List.init (t.psize - 1) (fun _ -> Domain.spawn (worker t));
  t

let shutdown t =
  if not t.stopped then begin
    Mutex.lock t.m;
    t.stopped <- true;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.m;
    List.iter Domain.join t.workers;
    t.workers <- []
  end

(* Drive one job of [chunks] chunks through [run]; the calling domain
   participates, so a size-1 pool is purely sequential. *)
let drive t ~chunks run =
  if t.stopped then invalid_arg "Pool: pool is shut down";
  if chunks > 0 then begin
    Mutex.lock t.m;
    t.job <- Some run;
    t.next <- 0;
    t.total <- chunks;
    t.unfinished <- chunks;
    Condition.broadcast t.work_ready;
    let rec claim () =
      if t.next < t.total then begin
        let i = t.next in
        t.next <- t.next + 1;
        Mutex.unlock t.m;
        (try run i with _ -> ());
        Mutex.lock t.m;
        t.unfinished <- t.unfinished - 1;
        claim ()
      end
    in
    claim ();
    while t.unfinished > 0 do
      Condition.wait t.work_done t.m
    done;
    t.job <- None;
    Mutex.unlock t.m
  end

let map_array t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else if t.psize <= 1 || n = 1 then Array.map f xs
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    (* More chunks than lanes so an expensive item doesn't serialize its
       whole lane; chunk [ci] covers [ci*n/chunks, (ci+1)*n/chunks). *)
    let chunks = min n (t.psize * 4) in
    let run ci =
      let lo = ci * n / chunks and hi = (ci + 1) * n / chunks in
      for i = lo to hi - 1 do
        match f xs.(i) with
        | y -> results.(i) <- Some y
        | exception e -> errors.(i) <- Some e
      done
    in
    drive t ~chunks run;
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.map (function Some y -> y | None -> assert false) results
  end

let map_list t f xs = Array.to_list (map_array t f (Array.of_list xs))

(* Chunked dispatch: the caller fixes how many items one lock round
   hands out.  [map_array] always cuts psize*4 chunks, which is right for
   chunky items; for micro-items (a containment test, a verdict merge)
   the per-chunk mutex round dominates, so callers pick a [chunk] big
   enough to amortize it.  Work is still claimed dynamically — a slow
   chunk doesn't serialize its lane — and results land in input slots, so
   output order is input order at every pool size. *)
let map_array_chunked t ~chunk f xs =
  let n = Array.length xs in
  let chunk = max 1 chunk in
  if n = 0 then [||]
  else if t.psize <= 1 || n <= chunk then Array.map f xs
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let chunks = (n + chunk - 1) / chunk in
    let run ci =
      let lo = ci * chunk in
      let hi = min n (lo + chunk) in
      for i = lo to hi - 1 do
        match f xs.(i) with
        | y -> results.(i) <- Some y
        | exception e -> errors.(i) <- Some e
      done
    in
    drive t ~chunks run;
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.map (function Some y -> y | None -> assert false) results
  end

let recommended_size () = Domain.recommended_domain_count ()
