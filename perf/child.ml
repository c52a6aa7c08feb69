(* Every measured instance runs in its own forked child, one child at a
   time, so no instance inherits another's heap or GC debt.  The result
   comes back marshalled over a pipe; a child that raises, dies or exits
   abnormally yields [Error]. *)

let run (f : unit -> 'a) : ('a, string) result =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let res =
        try Ok (f ()) with e -> Error ("raised " ^ Printexc.to_string e)
      in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc (res : ('a, string) result) [];
      close_out oc;
      (* Skip [at_exit]: the parent owns the buffered channels. *)
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let res : ('a, string) result =
        try Marshal.from_channel ic
        with End_of_file | Failure _ -> Error "child sent no result"
      in
      close_in ic;
      let rec wait () =
        try snd (Unix.waitpid [] pid)
        with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      (match wait () with
      | Unix.WEXITED 0 -> res
      | Unix.WEXITED c -> Error (Printf.sprintf "child exited with %d" c)
      | Unix.WSIGNALED s | Unix.WSTOPPED s ->
          Error (Printf.sprintf "child killed by signal %d" s))
