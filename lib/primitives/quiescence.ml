(* Per-thread double-collect termination detection; the invariant and its
   proof are in quiescence.mli.

   Every published counter is an atomic cell padded to its own cache
   line, so one owner's stores never invalidate another owner's cells.
   The owner keeps a private copy of its two counts in a separate padded
   record, so bumping a count is one store and no read. *)

module type ATOMIC = sig
  type 'a t

  val make : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
end

module Make (A : ATOMIC) = struct
  type counts = { mutable created : int; mutable finished : int }

  type t = {
    created : int A.t array;  (* [i]: thread [i]'s announced entries *)
    finished : int A.t array;  (* [i]: thread [i]'s retired entries *)
    own : counts array;  (* [i]: thread [i]'s copy of its two cells *)
  }

  let create ~num_threads =
    if num_threads < 1 then invalid_arg "Quiescence.create: num_threads < 1";
    let cells () = Padded.make_array num_threads (fun _ -> A.make 0) in
    {
      created = cells ();
      finished = cells ();
      own = Padded.make_array num_threads (fun _ -> { created = 0; finished = 0 });
    }

  let owner t fn tid =
    if tid < 0 || tid >= Array.length t.own then
      invalid_arg (Printf.sprintf "Quiescence.%s: %d is not a worker thread" fn tid);
    t.own.(tid)

  let announce t tid n =
    let c = owner t "announce" tid in
    c.created <- c.created + n;
    A.set t.created.(tid) c.created

  let retire t tid =
    let c = owner t "retire" tid in
    c.finished <- c.finished + 1;
    A.set t.finished.(tid) c.finished

  let sum cells = Array.fold_left (fun s cell -> s + A.get cell) 0 cells

  (* The order is the proof: every [finished] read before any [created]
     read. *)
  let quiescent t =
    let finished = sum t.finished in
    finished = sum t.created
end
